//go:build amd64 && !purego

package tensor

import (
	"os"
	"strings"
	"testing"
)

// TestSIMDSelectedOnAVX2Host checks the CPUID dispatch against the
// kernel's own view of the CPU: where /proc/cpuinfo lists avx2 and fma,
// the assembly kernels must be selected, and where it also lists avx512f,
// the AVX-512 tile. A broken feature check would otherwise fall back,
// silently and correctly, to a kernel several times slower.
func TestSIMDSelectedOnAVX2Host(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		has := map[string]bool{}
		for _, f := range strings.Fields(flags) {
			has[f] = true
		}
		if !has["avx2"] || !has["fma"] {
			t.Skip("CPU lists no avx2 and fma")
		}
		if bestISA < isaAVX2 {
			t.Fatal("CPU lists avx2 and fma, but the SIMD kernels are not selected")
		}
		if has["avx512f"] && bestISA != isaAVX512 {
			t.Fatal("CPU lists avx512f, but the AVX-512 tile is not selected")
		}
		return
	}
	t.Skip("no flags line in /proc/cpuinfo")
}
