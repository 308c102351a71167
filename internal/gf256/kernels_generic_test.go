//go:build !amd64 || purego

package gf256

import "testing"

// TestKernelIsPortable: a build without the assembly must say so.
func TestKernelIsPortable(t *testing.T) {
	if got := Kernel(); got != "portable" {
		t.Fatalf("Kernel() = %q on a build without SIMD kernels", got)
	}
}
