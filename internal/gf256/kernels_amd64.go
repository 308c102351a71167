//go:build amd64 && !purego

package gf256

// The SIMD rung: AVX2 split-nibble kernels (kernels_amd64.s) installed under
// the bulk entry points of bulk.go. Whether they run is decided once, here,
// at package init, from the CPU and the OS — there is no option, flag or
// environment variable. The purego build tag compiles this file out so CI can
// exercise the portable kernels on an amd64 runner; it is not a runtime
// switch.

// useAVX2 reports whether the CPU implements AVX2 and the OS saves the YMM
// registers across context switches.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bits 1 and 2: the OS preserves XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func mulAddAVX2(dst, src *byte, n int, tab *[32]byte)

//go:noescape
func mulAVX2(dst, src *byte, n int, tab *[32]byte)

//go:noescape
func mulAdd1x2AVX2(d1, d2, src *byte, n int, tab1, tab2 *[32]byte)

//go:noescape
func mulAdd2x2AVX2(d1, d2, s1, s2 *byte, n int, a1, a2, b1, b2 *[32]byte)

//go:noescape
func xorAVX2(dst, src *byte, n int)

//go:noescape
func xor4AVX2(dst, s1, s2, s3, s4 *byte, n int)

// The *Vec wrappers run the SIMD kernel over the vecLen prefix of equal-length
// rows and return how many bytes they handled; the caller finishes the rest
// with the portable kernel.

func mulAddVec(dst, src []byte, c byte) int {
	n := vecLen(len(dst))
	if n > 0 {
		mulAddAVX2(&dst[0], &src[0], n, &_tables.nib[c])
	}
	return n
}

func mulVec(dst, src []byte, c byte) int {
	n := vecLen(len(dst))
	if n > 0 {
		mulAVX2(&dst[0], &src[0], n, &_tables.nib[c])
	}
	return n
}

func mulAdd1x2Vec(d1, d2, src []byte, c1, c2 byte) int {
	n := vecLen(len(d1))
	if n > 0 {
		mulAdd1x2AVX2(&d1[0], &d2[0], &src[0], n, &_tables.nib[c1], &_tables.nib[c2])
	}
	return n
}

// mulAdd4x2Vec applies four sources to two destinations as two passes of the
// 2×2 kernel, the widest shape whose eight nibble tables fit the register
// file. The second pass re-reads destinations the first one wrote, so callers
// must not pass a source that is also a destination.
func mulAdd4x2Vec(d1, d2, s1, s2, s3, s4 []byte, ca, cb [4]byte) int {
	n := vecLen(len(d1))
	if n > 0 {
		nib := &_tables.nib
		mulAdd2x2AVX2(&d1[0], &d2[0], &s1[0], &s2[0], n, &nib[ca[0]], &nib[ca[1]], &nib[cb[0]], &nib[cb[1]])
		mulAdd2x2AVX2(&d1[0], &d2[0], &s3[0], &s4[0], n, &nib[ca[2]], &nib[ca[3]], &nib[cb[2]], &nib[cb[3]])
	}
	return n
}

func xorVec(dst, src []byte) int {
	n := vecLen(len(dst))
	if n > 0 {
		xorAVX2(&dst[0], &src[0], n)
	}
	return n
}

func xor4Vec(dst, s1, s2, s3, s4 []byte) int {
	n := vecLen(len(dst))
	if n > 0 {
		xor4AVX2(&dst[0], &s1[0], &s2[0], &s3[0], &s4[0], n)
	}
	return n
}
