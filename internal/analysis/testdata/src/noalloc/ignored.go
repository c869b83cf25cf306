//go:build ignore

package noalloc

// This file is excluded by its build constraint, as the go tool excludes
// it: were it loaded, unannotated would be declared twice.

//pelican:noalloc
func unannotated() []int {
	return []int{1, 2, 3}
}
