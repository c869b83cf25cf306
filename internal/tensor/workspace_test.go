package tensor

import (
	"math/rand"
	"sync"
	"testing"
)

func TestWorkspaceRoundTrip(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(3, 5)
	if a.Dim(0) != 3 || a.Dim(1) != 5 {
		t.Fatalf("Get shape = %v, want [3 5]", a.Shape())
	}
	a.Fill(7)
	ws.Put(a)
	// The recycled buffer serves a smaller request of the same class.
	b := ws.Get(14)
	if b.Len() != 14 {
		t.Fatalf("recycled Get length = %d, want 14", b.Len())
	}
	ws.Put(b)
}

func TestWorkspaceGetZeroed(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(4, 4)
	a.Fill(3)
	ws.Put(a)
	z := ws.GetZeroed(4, 4)
	for i, v := range z.Data() {
		if v != 0 {
			t.Fatalf("GetZeroed element %d = %v, want 0", i, v)
		}
	}
}

func TestWorkspaceReuse(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(100)
	pa := &a.Data()[0]
	ws.Put(a)
	b := ws.Get(64, 2) // 128 elements: same power-of-two class as 100
	if &b.Data()[0] != pa {
		t.Fatal("Get after Put did not reuse the pooled backing array")
	}
}

func TestWorkspaceRelease(t *testing.T) {
	ws := NewWorkspace()
	a, held := ws.Get(100), ws.Get(100)
	pa := &a.Data()[0]
	ws.Put(a)
	ws.Release()
	if b := ws.Get(100); &b.Data()[0] == pa {
		t.Fatal("Get after Release reused a pooled backing array")
	}
	ws.Put(held) // a tensor checked out across Release still goes back
	if c := ws.Get(100); &c.Data()[0] != &held.Data()[0] {
		t.Fatal("Put after Release did not pool the tensor")
	}
}

func TestWorkspaceZeroSize(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Get(0, 5)
	if a.Len() != 0 {
		t.Fatalf("zero-size Get has %d elements", a.Len())
	}
	ws.Put(a) // no-op, must not panic
}

func TestWorkspacePutForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put of a non-pooled tensor did not panic")
		}
	}()
	NewWorkspace().Put(New(3)) // capacity 3 is not a power of two
}

// TestWorkspaceConcurrent checks the pool under concurrent checkout/release
// (meaningful under -race).
func TestWorkspaceConcurrent(t *testing.T) {
	ws := NewWorkspace()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				n := 1 + rng.Intn(300)
				tt := ws.Get(n)
				tt.Fill(float64(n))
				for _, v := range tt.Data() {
					if v != float64(n) {
						t.Errorf("workspace tensor corrupted: got %v want %v", v, n)
						return
					}
				}
				ws.Put(tt)
			}
		}(int64(g))
	}
	wg.Wait()
}

func TestResize(t *testing.T) {
	a := New(4, 8)
	base := &a.Data()[0]
	a.Resize(2, 3)
	if a.Dim(0) != 2 || a.Dim(1) != 3 || a.Len() != 6 {
		t.Fatalf("Resize shape = %v", a.Shape())
	}
	if &a.Data()[0] != base {
		t.Fatal("shrinking Resize reallocated")
	}
	a.Resize(5, 100)
	if a.Len() != 500 {
		t.Fatalf("growing Resize length = %d", a.Len())
	}
}

func TestViewRowsSharesStorage(t *testing.T) {
	a := New(4, 3)
	for i := 0; i < a.Len(); i++ {
		a.Data()[i] = float64(i)
	}
	v := a.ViewRows(1, 3)
	if v.Dim(0) != 2 || v.Dim(1) != 3 {
		t.Fatalf("ViewRows shape = %v, want [2 3]", v.Shape())
	}
	if v.At(0, 0) != 3 || v.At(1, 2) != 8 {
		t.Fatalf("ViewRows values wrong: %v", v.Data())
	}
	v.Set(-1, 0, 0)
	if a.At(1, 0) != -1 {
		t.Fatal("ViewRows does not share storage with its parent")
	}
}

func TestViewRowsRank3(t *testing.T) {
	a := New(3, 2, 2)
	for i := 0; i < a.Len(); i++ {
		a.Data()[i] = float64(i)
	}
	v := a.ViewRows(2, 3)
	if v.Rank() != 3 || v.Dim(0) != 1 || v.Dim(1) != 2 || v.Dim(2) != 2 {
		t.Fatalf("rank-3 ViewRows shape = %v", v.Shape())
	}
	if v.At(0, 0, 0) != 8 {
		t.Fatalf("rank-3 ViewRows first element = %v, want 8", v.At(0, 0, 0))
	}
}

func TestGatherRowsInto(t *testing.T) {
	src := New(5, 2)
	for i := 0; i < src.Len(); i++ {
		src.Data()[i] = float64(i)
	}
	dst := New(3, 2)
	GatherRowsInto(dst, src, []int{4, 0, 2})
	want := []float64{8, 9, 0, 1, 4, 5}
	for i, w := range want {
		if dst.Data()[i] != w {
			t.Fatalf("GatherRowsInto = %v, want %v", dst.Data(), want)
		}
	}
}
