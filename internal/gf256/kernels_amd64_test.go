//go:build amd64 && !purego

package gf256

import "testing"

// TestKernelDispatchMatchesCPU re-derives AVX2 support from raw CPUID and
// XGETBV reads and insists the package dispatched accordingly, so a broken
// detection cannot silently ship the portable fallback on an AVX2 host.
func TestKernelDispatchMatchesCPU(t *testing.T) {
	probe := false
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf >= 7 {
		_, _, ecx1, _ := cpuid(1, 0)
		_, ebx7, _, _ := cpuid(7, 0)
		osxsave := ecx1>>27&1 == 1
		ymmSaved := false
		if osxsave {
			xcr0, _ := xgetbv()
			ymmSaved = xcr0>>1&3 == 3
		}
		probe = osxsave && ymmSaved && ebx7>>5&1 == 1
	}
	want := "portable"
	if probe {
		want = "avx2"
	}
	if got := Kernel(); got != want {
		t.Fatalf("Kernel() = %q, but CPUID/XGETBV say AVX2+YMM state = %v", got, probe)
	}
	t.Logf("kernel rung: %s", Kernel())
}
