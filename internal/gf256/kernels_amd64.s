//go:build amd64 && !purego

#include "textflag.h"

// AVX2 split-nibble GF(2^8) kernels. A product c·x is two 16-entry lookups,
// nib[c][x&15] ^ nib[c][16+(x>>4)] (see tables.nib), and VPSHUFB performs 32
// such lookups per instruction against a table held in a register. Every
// kernel takes n as a positive multiple of 32 and uses unaligned loads and
// stores; the Go wrappers in kernels_amd64.go finish odd tails with the
// portable code. Within one 32-byte step every source is loaded before the
// first destination store and destinations are updated in argument order, so
// a source (or the second destination) that is the same row as a destination
// sees exactly what the byte-at-a-time definition would.

// Y15 holds 0x0f in every byte for the whole of each GF(2^8) kernel.
#define LOADMASK \
	MOVQ $0x0f0f0f0f0f0f0f0f, DX; \
	VMOVQ DX, X15; \
	VPBROADCASTQ X15, Y15

// LOADTAB broadcasts the 16-byte low- and high-nibble tables at off(AX).
#define LOADTAB(off, tlo, thi) \
	VBROADCASTI128 off(AX), tlo; \
	VBROADCASTI128 off+16(AX), thi

// SPLIT loads 32 bytes at off(ptr), leaving their low nibbles in lo and
// their high nibbles, shifted down, in hi.
#define SPLIT(off, ptr, lo, hi) \
	VMOVDQU off(ptr), lo; \
	VPSRLQ  $4, lo, hi; \
	VPAND   Y15, lo, lo; \
	VPAND   Y15, hi, hi

// PROD sets out = tlo[lo] ^ thi[hi]; out may be lo and tmp may be hi.
#define PROD(lo, hi, tlo, thi, out, tmp) \
	VPSHUFB lo, tlo, out; \
	VPSHUFB hi, thi, tmp; \
	VPXOR   tmp, out, out

// func mulAddAVX2(dst, src *byte, n int, tab *[32]byte)
// dst[i] ^= c·src[i], tab = &nib[c].
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), AX
	LOADTAB(0, Y13, Y14)
	LOADMASK
	CMPQ CX, $64
	JB   ma_tail

ma_loop:
	SPLIT(0, SI, Y0, Y1)
	SPLIT(32, SI, Y2, Y3)
	PROD(Y0, Y1, Y13, Y14, Y0, Y1)
	PROD(Y2, Y3, Y13, Y14, Y2, Y3)
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y2, Y2
	VMOVDQU Y0, (DI)
	VMOVDQU Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     ma_loop

ma_tail:
	TESTQ CX, CX
	JZ    ma_done
	SPLIT(0, SI, Y0, Y1)
	PROD(Y0, Y1, Y13, Y14, Y0, Y1)
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)

ma_done:
	VZEROUPPER
	RET

// func mulAVX2(dst, src *byte, n int, tab *[32]byte)
// dst[i] = c·src[i], tab = &nib[c]. In place (dst == src) is safe.
TEXT ·mulAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ tab+24(FP), AX
	LOADTAB(0, Y13, Y14)
	LOADMASK
	CMPQ CX, $64
	JB   m_tail

m_loop:
	SPLIT(0, SI, Y0, Y1)
	SPLIT(32, SI, Y2, Y3)
	PROD(Y0, Y1, Y13, Y14, Y0, Y1)
	PROD(Y2, Y3, Y13, Y14, Y2, Y3)
	VMOVDQU Y0, (DI)
	VMOVDQU Y2, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     m_loop

m_tail:
	TESTQ CX, CX
	JZ    m_done
	SPLIT(0, SI, Y0, Y1)
	PROD(Y0, Y1, Y13, Y14, Y0, Y1)
	VMOVDQU Y0, (DI)

m_done:
	VZEROUPPER
	RET

// func mulAdd1x2AVX2(d1, d2, src *byte, n int, tab1, tab2 *[32]byte)
// d1[i] ^= c1·src[i]; d2[i] ^= c2·src[i]. The source nibbles are split once
// for both destinations.
TEXT ·mulAdd1x2AVX2(SB), NOSPLIT, $0-48
	MOVQ d1+0(FP), DI
	MOVQ d2+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	MOVQ tab1+32(FP), AX
	LOADTAB(0, Y11, Y12)
	MOVQ tab2+40(FP), AX
	LOADTAB(0, Y13, Y14)
	LOADMASK
	CMPQ CX, $64
	JB   m12_tail

m12_loop:
	SPLIT(0, SI, Y0, Y1)
	SPLIT(32, SI, Y2, Y3)
	PROD(Y0, Y1, Y11, Y12, Y4, Y5)
	PROD(Y2, Y3, Y11, Y12, Y6, Y7)
	PROD(Y0, Y1, Y13, Y14, Y0, Y1)
	PROD(Y2, Y3, Y13, Y14, Y2, Y3)
	VPXOR   (DI), Y4, Y4
	VPXOR   32(DI), Y6, Y6
	VMOVDQU Y4, (DI)
	VMOVDQU Y6, 32(DI)
	VPXOR   (R8), Y0, Y0
	VPXOR   32(R8), Y2, Y2
	VMOVDQU Y0, (R8)
	VMOVDQU Y2, 32(R8)
	ADDQ    $64, SI
	ADDQ    $64, DI
	ADDQ    $64, R8
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     m12_loop

m12_tail:
	TESTQ CX, CX
	JZ    m12_done
	SPLIT(0, SI, Y0, Y1)
	PROD(Y0, Y1, Y11, Y12, Y4, Y5)
	PROD(Y0, Y1, Y13, Y14, Y0, Y1)
	VPXOR   (DI), Y4, Y4
	VMOVDQU Y4, (DI)
	VPXOR   (R8), Y0, Y0
	VMOVDQU Y0, (R8)

m12_done:
	VZEROUPPER
	RET

// M22STEP is one 32-byte step of the 2×2 kernel at offset off.
#define M22STEP(off) \
	SPLIT(off, SI, Y0, Y1); \
	SPLIT(off, R9, Y2, Y3); \
	PROD(Y0, Y1, Y7, Y8, Y4, Y5); \
	PROD(Y2, Y3, Y9, Y10, Y6, Y5); \
	VPXOR   Y6, Y4, Y4; \
	PROD(Y0, Y1, Y11, Y12, Y0, Y1); \
	PROD(Y2, Y3, Y13, Y14, Y2, Y3); \
	VPXOR   Y2, Y0, Y0; \
	VPXOR   off(DI), Y4, Y4; \
	VMOVDQU Y4, off(DI); \
	VPXOR   off(R8), Y0, Y0; \
	VMOVDQU Y0, off(R8)

// func mulAdd2x2AVX2(d1, d2, s1, s2 *byte, n int, a1, a2, b1, b2 *[32]byte)
// d1[i] ^= a1·s1[i] ^ a2·s2[i]; d2[i] ^= b1·s1[i] ^ b2·s2[i], each coefficient
// given as its nibble table. Eight table registers leave room for one 32-byte
// step per iteration: each source is split once for both destinations and
// each destination is loaded and stored once for both sources.
TEXT ·mulAdd2x2AVX2(SB), NOSPLIT, $0-72
	MOVQ d1+0(FP), DI
	MOVQ d2+8(FP), R8
	MOVQ s1+16(FP), SI
	MOVQ s2+24(FP), R9
	MOVQ n+32(FP), CX
	MOVQ a1+40(FP), AX
	LOADTAB(0, Y7, Y8)
	MOVQ a2+48(FP), AX
	LOADTAB(0, Y9, Y10)
	MOVQ b1+56(FP), AX
	LOADTAB(0, Y11, Y12)
	MOVQ b2+64(FP), AX
	LOADTAB(0, Y13, Y14)
	LOADMASK

	CMPQ CX, $64
	JB   m22_tail

m22_loop:
	M22STEP(0)
	M22STEP(32)
	ADDQ $64, SI
	ADDQ $64, R9
	ADDQ $64, DI
	ADDQ $64, R8
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  m22_loop

m22_tail:
	TESTQ CX, CX
	JZ    m22_done
	M22STEP(0)

m22_done:
	VZEROUPPER
	RET

// func xorAVX2(dst, src *byte, n int)
// dst[i] ^= src[i].
TEXT ·xorAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	CMPQ CX, $64
	JB   x_tail

x_loop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     x_loop

x_tail:
	TESTQ CX, CX
	JZ    x_done
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)

x_done:
	VZEROUPPER
	RET

// func xor4AVX2(dst, s1, s2, s3, s4 *byte, n int)
// dst[i] ^= s1[i] ^ s2[i] ^ s3[i] ^ s4[i], one destination load and store
// per four sources.
TEXT ·xor4AVX2(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ s1+8(FP), SI
	MOVQ s2+16(FP), R9
	MOVQ s3+24(FP), R10
	MOVQ s4+32(FP), R11
	MOVQ n+40(FP), CX
	CMPQ CX, $64
	JB   x4_tail

x4_loop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y1
	VPXOR   (R9), Y0, Y0
	VPXOR   32(R9), Y1, Y1
	VPXOR   (R10), Y0, Y0
	VPXOR   32(R10), Y1, Y1
	VPXOR   (R11), Y0, Y0
	VPXOR   32(R11), Y1, Y1
	VPXOR   (DI), Y0, Y0
	VPXOR   32(DI), Y1, Y1
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, R11
	ADDQ    $64, DI
	SUBQ    $64, CX
	CMPQ    CX, $64
	JAE     x4_loop

x4_tail:
	TESTQ CX, CX
	JZ    x4_done
	VMOVDQU (SI), Y0
	VPXOR   (R9), Y0, Y0
	VPXOR   (R10), Y0, Y0
	VPXOR   (R11), Y0, Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)

x4_done:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
// Reads XCR0. Only valid when CPUID reports OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
