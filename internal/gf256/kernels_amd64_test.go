//go:build amd64 && !purego

package gf256

import "testing"

// TestKernelDispatchMatchesCPU re-derives the rung from raw CPUID and XGETBV
// reads — AVX2 with YMM state; GFNI with AVX-512 F and BW and opmask/ZMM state
// on top — and insists the package dispatched accordingly, so a broken
// detection cannot silently ship a narrower rung than the host has.
func TestKernelDispatchMatchesCPU(t *testing.T) {
	want := "portable"
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf >= 7 {
		_, _, ecx1, _ := cpuid(1, 0)
		_, ebx7, ecx7, _ := cpuid(7, 0)
		var xcr0 uint32
		if osxsave := ecx1>>27&1 == 1; osxsave {
			xcr0, _ = xgetbv()
		}
		ymmSaved := xcr0>>1&3 == 3
		zmmSaved := ymmSaved && xcr0>>5&7 == 7
		if ecx1>>28&1 == 1 && ymmSaved && ebx7>>5&1 == 1 {
			want = "avx2"
			if zmmSaved && ecx7>>8&1 == 1 && ebx7>>16&1 == 1 && ebx7>>30&1 == 1 {
				want = "gfni"
			}
		}
	}
	if got := Kernel(); got != want {
		t.Fatalf("Kernel() = %q, but CPUID/XGETBV say %q", got, want)
	}
	if got := rungs(); got[len(got)-1].String() != want || len(got) != int(active)+1 {
		t.Fatalf("rungs() = %v on a %s host", got, want)
	}
	t.Logf("kernel rung: %s (tested rungs: %v)", Kernel(), rungs())
}
