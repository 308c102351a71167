//go:build amd64 && !purego

package gf256

// The SIMD rungs (kernels_amd64.s) installed under the bulk entry points of
// bulk.go: tableless GFNI kernels over 64-byte ZMM steps where the CPU has
// them, AVX2 split-nibble kernels otherwise. Which one runs is decided once,
// here, at package init, from the CPU and the OS — there is no option, flag or
// environment variable. The purego build tag compiles this file out so CI can
// exercise the portable kernels on an amd64 runner; it is not a runtime
// switch.

// active is the rung every entry point dispatches to.
var active = detectRung()

// detectRung picks the widest rung the CPU implements and the OS saves the
// register state for.
func detectRung() rung {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return rungPortable
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return rungPortable
	}
	// XCR0 bits 1 and 2: the OS preserves XMM and YMM state.
	xcr0, _ := xgetbv()
	if xcr0&6 != 6 {
		return rungPortable
	}
	const avx2 = 1 << 5
	_, ebx, ecx, _ := cpuid(7, 0)
	if ebx&avx2 == 0 {
		return rungPortable
	}
	// The GFNI kernels are EVEX-encoded over ZMM registers with byte masks:
	// GFNI itself, AVX-512 F (the registers) and BW (byte broadcast, byte
	// masking), and XCR0 bits 5–7 (the OS preserves opmask and ZMM state).
	const avx512f, avx512bw, gfni = 1 << 16, 1 << 30, 1 << 8
	if ecx&gfni != 0 && ebx&avx512f != 0 && ebx&avx512bw != 0 && xcr0&0xE0 == 0xE0 {
		return rungGFNI
	}
	return rungAVX2
}

// rungs lists every rung this CPU can run, narrowest first; the tests run
// each one's kernels directly so the rungs dispatch passes over stay covered.
func rungs() []rung {
	all := []rung{rungPortable, rungAVX2, rungGFNI}
	return all[:active+1]
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func mulAddAVX2(dst, src *byte, n int, tab *[32]byte)

//go:noescape
func mulAVX2(dst, src *byte, n int, tab *[32]byte)

//go:noescape
func mulAdd2x2AVX2(d1, d2, s1, s2 *byte, n int, a1, a2, b1, b2 *[32]byte)

//go:noescape
func xorAVX2(dst, src *byte, n int)

//go:noescape
func xor4AVX2(dst, s1, s2, s3, s4 *byte, n int)

//go:noescape
func mulAddGFNI(dst, src *byte, n int, c byte)

//go:noescape
func mulGFNI(dst, src *byte, n int, c byte)

//go:noescape
func mulAdd2GFNI(dst, s1, s2 *byte, n int, c1, c2 byte)

//go:noescape
func mulAdd4GFNI(dst, s1, s2, s3, s4 *byte, n int, coeffs uint32)

//go:noescape
func mulAdd4x2GFNI(d1, d2, s1, s2, s3, s4 *byte, n int, coeffs uint64)

// vecLen is the prefix of an n-byte row rung r's multiply kernels take: all of
// it on the GFNI rung (its kernels mask their own tails), the whole 32-byte
// steps on the AVX2 rung, nothing on the portable one.
func (r rung) vecLen(n int) int {
	switch r {
	case rungGFNI:
		return n
	case rungAVX2:
		return n &^ 31
	}
	return 0
}

// xorLen is vecLen for the XOR kernels, which multiply nothing and so have no
// GFNI form: every SIMD rung runs the AVX2 ones.
func (r rung) xorLen(n int) int {
	if r == rungPortable {
		return 0
	}
	return n &^ 31
}

// The *Vec wrappers run rung r's kernel over the vecLen prefix of equal-length
// rows and return how many bytes they handled; the caller finishes the rest
// with the portable kernel.

func mulAddVec(r rung, dst, src []byte, c byte) int {
	n := r.vecLen(len(dst))
	if n == 0 {
		return 0
	}
	if r == rungGFNI {
		mulAddGFNI(&dst[0], &src[0], n, c)
	} else {
		mulAddAVX2(&dst[0], &src[0], n, &_tables.nib[c])
	}
	return n
}

func mulVec(r rung, dst, src []byte, c byte) int {
	n := r.vecLen(len(dst))
	if n == 0 {
		return 0
	}
	if r == rungGFNI {
		mulGFNI(&dst[0], &src[0], n, c)
	} else {
		mulAVX2(&dst[0], &src[0], n, &_tables.nib[c])
	}
	return n
}

// mulAdd2Vec and mulAdd4Vec are the fused multi-source shapes. Only the GFNI
// rung has bodies for them: with no nibble splits to pay per source, sharing
// the destination load and store is worth 1.3× (two sources) and 1.7× (four)
// over single-source passes at k=4096, and twice that on short rows. On the
// AVX2 rung the same fusion measured 1.12× and 1.16×, so there these handle
// nothing and the entry points compose single-source passes.

func mulAdd2Vec(r rung, dst, s1, s2 []byte, c1, c2 byte) int {
	if r != rungGFNI || len(dst) == 0 {
		return 0
	}
	mulAdd2GFNI(&dst[0], &s1[0], &s2[0], len(dst), c1, c2)
	return len(dst)
}

func mulAdd4Vec(r rung, dst, s1, s2, s3, s4 []byte, c1, c2, c3, c4 byte) int {
	if r != rungGFNI || len(dst) == 0 {
		return 0
	}
	coeffs := uint32(c1) | uint32(c2)<<8 | uint32(c3)<<16 | uint32(c4)<<24
	mulAdd4GFNI(&dst[0], &s1[0], &s2[0], &s3[0], &s4[0], len(dst), coeffs)
	return len(dst)
}

// mulAdd4x2Vec applies four sources to two destinations: one pass on the GFNI
// rung, two passes of the 2×2 kernel on the AVX2 rung — the widest shape whose
// eight nibble tables fit the register file. The second pass re-reads
// destinations the first one wrote, so callers must not pass a source that is
// also a destination.
func mulAdd4x2Vec(r rung, d1, d2, s1, s2, s3, s4 []byte, ca, cb [4]byte) int {
	n := r.vecLen(len(d1))
	if n == 0 {
		return 0
	}
	if r == rungGFNI {
		coeffs := uint64(ca[0]) | uint64(ca[1])<<8 | uint64(ca[2])<<16 | uint64(ca[3])<<24 |
			uint64(cb[0])<<32 | uint64(cb[1])<<40 | uint64(cb[2])<<48 | uint64(cb[3])<<56
		mulAdd4x2GFNI(&d1[0], &d2[0], &s1[0], &s2[0], &s3[0], &s4[0], n, coeffs)
		return n
	}
	nib := &_tables.nib
	mulAdd2x2AVX2(&d1[0], &d2[0], &s1[0], &s2[0], n, &nib[ca[0]], &nib[ca[1]], &nib[cb[0]], &nib[cb[1]])
	mulAdd2x2AVX2(&d1[0], &d2[0], &s3[0], &s4[0], n, &nib[ca[2]], &nib[ca[3]], &nib[cb[2]], &nib[cb[3]])
	return n
}

func xorVec(r rung, dst, src []byte) int {
	n := r.xorLen(len(dst))
	if n > 0 {
		xorAVX2(&dst[0], &src[0], n)
	}
	return n
}

func xor4Vec(r rung, dst, s1, s2, s3, s4 []byte) int {
	n := r.xorLen(len(dst))
	if n > 0 {
		xor4AVX2(&dst[0], &s1[0], &s2[0], &s3[0], &s4[0], n)
	}
	return n
}
