// Package noalloc exercises the //pelican:noalloc contract: one clean
// function per permitted idiom, one violation per forbidden construct.
package noalloc

import "fmt"

type scratch struct {
	buf []float64
}

type val struct{ n int }

func (v val) Sum() int { return v.n }

type summer interface{ Sum() int }

func takeIface(s summer) int { return s.Sum() }

// cleanGuardedGrow allocates only under a capacity guard.
//
//pelican:noalloc
func cleanGuardedGrow(s *scratch, n int) []float64 {
	if cap(s.buf) < n {
		s.buf = make([]float64, n)
	}
	s.buf = s.buf[:n]
	return s.buf
}

// cleanRecycledAppend appends into storage recycled with x = x[:0].
//
//pelican:noalloc
func cleanRecycledAppend(s *scratch, vs []float64) {
	s.buf = s.buf[:0]
	for _, v := range vs {
		s.buf = append(s.buf, v)
	}
}

// cleanTruncateAppend uses the one-step append(x[:0], ...) recycle.
//
//pelican:noalloc
func cleanTruncateAppend(s *scratch, a, b float64) {
	s.buf = append(s.buf[:0], a, b)
}

// cleanAppendHelper appends into a caller-owned slice parameter.
//
//pelican:noalloc
func cleanAppendHelper(dst []int, n int) []int {
	for i := 0; i < n; i++ {
		dst = append(dst, i)
	}
	return dst
}

// cleanPanicPath may allocate freely on the crash path.
//
//pelican:noalloc
func cleanPanicPath(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n))
	}
}

// cleanPoolMiss allocates only behind a nil check.
//
//pelican:noalloc
func cleanPoolMiss(s *scratch) *scratch {
	if s == nil {
		s = &scratch{}
	}
	return s
}

// cleanWorkerPrologue allocates before its service loop only.
//
//pelican:noalloc
func cleanWorkerPrologue(ch chan int) int {
	tmp := make([]int, 8)
	total := 0
	for v := range ch {
		tmp[0] = v
		total += tmp[0]
	}
	return total
}

// cleanPointerIface passes a pointer to an interface parameter (no box).
//
//pelican:noalloc
func cleanPointerIface(v *val) int {
	return takeIface(v)
}

// unannotated is not subject to the contract.
func unannotated() []int {
	return []int{1, 2, 3}
}

//pelican:noalloc
func badMake(n int) []int {
	return make([]int, n) // want "unguarded make"
}

//pelican:noalloc
func badNew() *scratch {
	return new(scratch) // want "unguarded new"
}

//pelican:noalloc
func badAppend(s *scratch, v float64) {
	s.buf = append(s.buf, v) // want "append may grow its backing array"
}

//pelican:noalloc
func badSliceLit() []int {
	return []int{1, 2, 3} // want "slice literal allocates"
}

//pelican:noalloc
func badMapLit() map[string]int {
	return map[string]int{"a": 1} // want "map literal allocates"
}

//pelican:noalloc
func badAddrComposite() *scratch {
	return &scratch{} // want "escapes to the heap"
}

//pelican:noalloc
func badClosure(n int) func() int {
	return func() int { return n } // want "closure allocates"
}

//pelican:noalloc
func badGo(f func()) {
	go f() // want "go statement launches a goroutine"
}

//pelican:noalloc
func badConcat(a, b string) string {
	return a + b // want "string concatenation allocates"
}

//pelican:noalloc
func badFmt(v int) {
	fmt.Println(v) // want "fmt.Println allocates"
}

//pelican:noalloc
func badStringConv(bs []byte) string {
	return string(bs) // want "conversion copies and allocates"
}

//pelican:noalloc
func badBoxing(v val) int {
	return takeIface(v) // want "boxes the value"
}

//pelican:noalloc
func badMethodValue(v *val) func() int {
	return v.Sum // want "method value Sum allocates"
}

// asmKernel is an assembly stub: it has no Go body to check, so the
// annotation is the promise its .s file keeps.
//
//pelican:noalloc
func asmKernel(dst *float32, n int)
