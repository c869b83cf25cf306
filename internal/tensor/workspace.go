package tensor

import (
	"fmt"
	"math/bits"
	"sync"
)

// wsClasses is the number of power-of-two size classes a Workspace keeps.
// Class c holds tensors whose backing array has capacity exactly 1<<c, so
// the largest pooled tensor is 1<<(wsClasses-1) elements (≈ 2G floats) —
// far beyond anything the training loops allocate.
const wsClasses = 32

// Workspace is a goroutine-safe, size-bucketed pool of scratch tensors.
//
// Hot paths check tensors out with Get/GetZeroed and return them with Put
// once the values are dead, so steady-state training and inference reuse a
// fixed set of backing arrays instead of allocating fresh ones every call.
// Tensors are bucketed by power-of-two capacity; a Get for n elements is
// served by any pooled tensor of the matching class, reshaped in place.
//
// Ownership rules (see PERF.md for the full contract):
//
//   - The caller of Get owns the tensor until it calls Put.
//   - Only tensors obtained from Get may be Put, and at most once per Get;
//     views created with Reshape/ViewRows share storage and must never be
//     Put themselves.
//   - A tensor whose lifetime is "until my next call" (layer outputs, BPTT
//     step caches) is reclaimed by its owner at the start of that next call,
//     not by the consumer.
//
// Dropping a checked-out tensor without Put is safe — it is simply garbage
// collected — so error paths need no cleanup.
type Workspace struct {
	mu      sync.Mutex
	buckets [wsClasses][]*Tensor
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace { return &Workspace{} }

// Scratch is the package-default workspace shared by the nn hot paths.
// It is goroutine-safe; independent networks running concurrently simply
// share one pool of buffers.
var Scratch = NewWorkspace()

// sizeClass returns the class whose capacity 1<<c is the smallest power of
// two ≥ n (n ≥ 1).
func sizeClass(n int) int { return bits.Len(uint(n - 1)) }

// Get checks out a tensor of the given shape. Its contents are unspecified
// garbage; use GetZeroed when the caller does not overwrite every element.
func (w *Workspace) Get(shape ...int) *Tensor {
	n := checkShape(shape)
	if n == 0 {
		return New(shape...)
	}
	c := sizeClass(n)
	w.mu.Lock()
	bucket := w.buckets[c]
	if len(bucket) > 0 {
		t := bucket[len(bucket)-1]
		w.buckets[c] = bucket[:len(bucket)-1]
		w.mu.Unlock()
		return t.Resize(shape...)
	}
	w.mu.Unlock()
	// Allocate the full class capacity so the invariant "class c holds
	// capacity 1<<c" survives round trips through Put.
	data := make([]float64, 1<<c)
	t := &Tensor{shape: cloneInts(shape), data: data[:n]}
	return t
}

// GetZeroed checks out a zero-filled tensor of the given shape.
func (w *Workspace) GetZeroed(shape ...int) *Tensor {
	t := w.Get(shape...)
	t.Zero()
	return t
}

// Release drops every pooled tensor, so the memory a finished phase of work
// pooled can be collected. Tensors checked out stay their holders' and may
// still be Put afterwards.
func (w *Workspace) Release() {
	w.mu.Lock()
	w.buckets = [wsClasses][]*Tensor{}
	w.mu.Unlock()
}

// Put returns a tensor previously obtained from Get to the pool. Putting
// nil or an empty tensor is a no-op. The caller must not use t (or any view
// of it) afterwards.
func (w *Workspace) Put(t *Tensor) {
	if t == nil || cap(t.data) == 0 {
		return
	}
	c := sizeClass(cap(t.data))
	if 1<<c != cap(t.data) {
		// Not allocated by Get (foreign capacity): refuse rather than
		// corrupt the class invariant.
		panic(fmt.Sprintf("tensor: Workspace.Put of tensor with non-pooled capacity %d", cap(t.data)))
	}
	w.mu.Lock()
	w.buckets[c] = append(w.buckets[c], t)
	w.mu.Unlock()
}
