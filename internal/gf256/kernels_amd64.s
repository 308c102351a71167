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

// GFNI kernels. The field is Rijndael's 0x11B — exactly the reduction
// VGF2P8MULB hard-wires — so a product needs no table: broadcast the
// coefficient once, then one multiply and one XOR per 64 bytes. Every kernel
// takes any n > 0: whole 64-byte steps run unmasked and the last n%64 bytes
// run once more under a byte mask (masked-out bytes are neither loaded nor
// stored, so nothing past n is touched and short rows never leave the SIMD
// rung). Within one step every source is loaded before the first destination
// store and destinations are updated in argument order, the same aliasing
// contract as the AVX2 kernels.

// TAILMASK sets K1 to the low CX bits, CX in [1, 63].
#define TAILMASK \
	MOVQ  $1, AX; \
	SHLQ  CX, AX; \
	DECQ  AX; \
	KMOVQ AX, K1

// func mulAddGFNI(dst, src *byte, n int, c byte)
// dst[i] ^= c·src[i].
TEXT ·mulAddGFNI(SB), NOSPLIT, $0-25
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVBLZX      c+24(FP), AX
	VPBROADCASTB AX, Z15
	CMPQ         CX, $128
	JB           gma_64

gma_loop:
	VMOVDQU64  (SI), Z0
	VMOVDQU64  64(SI), Z1
	VGF2P8MULB Z15, Z0, Z0
	VGF2P8MULB Z15, Z1, Z1
	VPXORQ     (DI), Z0, Z0
	VPXORQ     64(DI), Z1, Z1
	VMOVDQU64  Z0, (DI)
	VMOVDQU64  Z1, 64(DI)
	ADDQ       $128, SI
	ADDQ       $128, DI
	SUBQ       $128, CX
	CMPQ       CX, $128
	JAE        gma_loop

gma_64:
	CMPQ       CX, $64
	JB         gma_tail
	VMOVDQU64  (SI), Z0
	VGF2P8MULB Z15, Z0, Z0
	VPXORQ     (DI), Z0, Z0
	VMOVDQU64  Z0, (DI)
	ADDQ       $64, SI
	ADDQ       $64, DI
	SUBQ       $64, CX

gma_tail:
	TESTQ CX, CX
	JZ    gma_done
	TAILMASK
	VMOVDQU8.Z (SI), K1, Z0
	VMOVDQU8.Z (DI), K1, Z1
	VGF2P8MULB Z15, Z0, Z0
	VPXORQ     Z1, Z0, Z0
	VMOVDQU8   Z0, K1, (DI)

gma_done:
	VZEROUPPER
	RET

// func mulGFNI(dst, src *byte, n int, c byte)
// dst[i] = c·src[i]. In place (dst == src) is safe.
TEXT ·mulGFNI(SB), NOSPLIT, $0-25
	MOVQ         dst+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         n+16(FP), CX
	MOVBLZX      c+24(FP), AX
	VPBROADCASTB AX, Z15
	CMPQ         CX, $64
	JB           gm_tail

gm_loop:
	VMOVDQU64  (SI), Z0
	VGF2P8MULB Z15, Z0, Z0
	VMOVDQU64  Z0, (DI)
	ADDQ       $64, SI
	ADDQ       $64, DI
	SUBQ       $64, CX
	CMPQ       CX, $64
	JAE        gm_loop

gm_tail:
	TESTQ CX, CX
	JZ    gm_done
	TAILMASK
	VMOVDQU8.Z (SI), K1, Z0
	VGF2P8MULB Z15, Z0, Z0
	VMOVDQU8   Z0, K1, (DI)

gm_done:
	VZEROUPPER
	RET

// G42PROD multiplies the four source registers Z0–Z3 by the coefficient
// registers c0–c3, leaving the XOR of the first three products in out and the
// fourth in Z6 for the caller to fold in together with the destination (each a
// three-way XOR: VPTERNLOGQ's parity table, 0x96). Z4 and Z5 are scratch.
#define G42PROD(c0, c1, c2, c3, out) \
	VGF2P8MULB c0, Z0, out; \
	VGF2P8MULB c1, Z1, Z4; \
	VGF2P8MULB c2, Z2, Z5; \
	VGF2P8MULB c3, Z3, Z6; \
	VPTERNLOGQ $0x96, Z4, Z5, out

// func mulAdd4x2GFNI(d1, d2, s1, s2, s3, s4 *byte, n int, coeffs uint64)
// d1[i] ^= a0·s1[i] ^ a1·s2[i] ^ a2·s3[i] ^ a3·s4[i] and likewise d2 with
// b0…b3, coeffs = a0 | a1<<8 | … | b3<<56. Eight broadcast coefficients fit
// the register file where the AVX2 rung's sixteen nibble tables do not, so
// the whole 4×2 shape is a single pass: each source is loaded once for both
// destinations and each destination is loaded and stored once for all four
// sources.
TEXT ·mulAdd4x2GFNI(SB), NOSPLIT, $0-64
	MOVQ         d1+0(FP), DI
	MOVQ         d2+8(FP), R8
	MOVQ         s1+16(FP), SI
	MOVQ         s2+24(FP), R9
	MOVQ         s3+32(FP), R10
	MOVQ         s4+40(FP), R11
	MOVQ         n+48(FP), CX
	MOVQ         coeffs+56(FP), AX
	VPBROADCASTB AX, Z8
	SHRQ         $8, AX
	VPBROADCASTB AX, Z9
	SHRQ         $8, AX
	VPBROADCASTB AX, Z10
	SHRQ         $8, AX
	VPBROADCASTB AX, Z11
	SHRQ         $8, AX
	VPBROADCASTB AX, Z12
	SHRQ         $8, AX
	VPBROADCASTB AX, Z13
	SHRQ         $8, AX
	VPBROADCASTB AX, Z14
	SHRQ         $8, AX
	VPBROADCASTB AX, Z15
	CMPQ         CX, $64
	JB           g42_tail

g42_loop:
	VMOVDQU64  (SI), Z0
	VMOVDQU64  (R9), Z1
	VMOVDQU64  (R10), Z2
	VMOVDQU64  (R11), Z3
	G42PROD(Z8, Z9, Z10, Z11, Z7)
	VPTERNLOGQ $0x96, (DI), Z6, Z7
	VMOVDQU64  Z7, (DI)
	G42PROD(Z12, Z13, Z14, Z15, Z7)
	VPTERNLOGQ $0x96, (R8), Z6, Z7
	VMOVDQU64  Z7, (R8)
	ADDQ       $64, SI
	ADDQ       $64, R9
	ADDQ       $64, R10
	ADDQ       $64, R11
	ADDQ       $64, DI
	ADDQ       $64, R8
	SUBQ       $64, CX
	CMPQ       CX, $64
	JAE        g42_loop

g42_tail:
	TESTQ CX, CX
	JZ    g42_done
	TAILMASK
	VMOVDQU8.Z (SI), K1, Z0
	VMOVDQU8.Z (R9), K1, Z1
	VMOVDQU8.Z (R10), K1, Z2
	VMOVDQU8.Z (R11), K1, Z3
	G42PROD(Z8, Z9, Z10, Z11, Z7)
	VMOVDQU8.Z (DI), K1, Z16
	VPTERNLOGQ $0x96, Z16, Z6, Z7
	VMOVDQU8   Z7, K1, (DI)
	G42PROD(Z12, Z13, Z14, Z15, Z7)
	VMOVDQU8.Z (R8), K1, Z16
	VPTERNLOGQ $0x96, Z16, Z6, Z7
	VMOVDQU8   Z7, K1, (R8)

g42_done:
	VZEROUPPER
	RET

// func mulAdd4GFNI(dst, s1, s2, s3, s4 *byte, n int, coeffs uint32)
// dst[i] ^= c1·s1[i] ^ c2·s2[i] ^ c3·s3[i] ^ c4·s4[i], coeffs = c1 | c2<<8 |
// c3<<16 | c4<<24: one destination load and store per four sources.
TEXT ·mulAdd4GFNI(SB), NOSPLIT, $0-52
	MOVQ         dst+0(FP), DI
	MOVQ         s1+8(FP), SI
	MOVQ         s2+16(FP), R9
	MOVQ         s3+24(FP), R10
	MOVQ         s4+32(FP), R11
	MOVQ         n+40(FP), CX
	MOVL         coeffs+48(FP), AX
	VPBROADCASTB AX, Z8
	SHRQ         $8, AX
	VPBROADCASTB AX, Z9
	SHRQ         $8, AX
	VPBROADCASTB AX, Z10
	SHRQ         $8, AX
	VPBROADCASTB AX, Z11
	CMPQ         CX, $64
	JB           g4_tail

g4_loop:
	VMOVDQU64  (SI), Z0
	VMOVDQU64  (R9), Z1
	VMOVDQU64  (R10), Z2
	VMOVDQU64  (R11), Z3
	G42PROD(Z8, Z9, Z10, Z11, Z7)
	VPTERNLOGQ $0x96, (DI), Z6, Z7
	VMOVDQU64  Z7, (DI)
	ADDQ       $64, SI
	ADDQ       $64, R9
	ADDQ       $64, R10
	ADDQ       $64, R11
	ADDQ       $64, DI
	SUBQ       $64, CX
	CMPQ       CX, $64
	JAE        g4_loop

g4_tail:
	TESTQ CX, CX
	JZ    g4_done
	TAILMASK
	VMOVDQU8.Z (SI), K1, Z0
	VMOVDQU8.Z (R9), K1, Z1
	VMOVDQU8.Z (R10), K1, Z2
	VMOVDQU8.Z (R11), K1, Z3
	G42PROD(Z8, Z9, Z10, Z11, Z7)
	VMOVDQU8.Z (DI), K1, Z16
	VPTERNLOGQ $0x96, Z16, Z6, Z7
	VMOVDQU8   Z7, K1, (DI)

g4_done:
	VZEROUPPER
	RET

// func mulAdd2GFNI(dst, s1, s2 *byte, n int, c1, c2 byte)
// dst[i] ^= c1·s1[i] ^ c2·s2[i], one destination load and store for both
// sources.
TEXT ·mulAdd2GFNI(SB), NOSPLIT, $0-34
	MOVQ         dst+0(FP), DI
	MOVQ         s1+8(FP), SI
	MOVQ         s2+16(FP), R9
	MOVQ         n+24(FP), CX
	MOVBLZX      c1+32(FP), AX
	VPBROADCASTB AX, Z14
	MOVBLZX      c2+33(FP), AX
	VPBROADCASTB AX, Z15
	CMPQ         CX, $64
	JB           g2_tail

g2_loop:
	VMOVDQU64  (SI), Z0
	VMOVDQU64  (R9), Z1
	VGF2P8MULB Z14, Z0, Z0
	VGF2P8MULB Z15, Z1, Z1
	VPTERNLOGQ $0x96, (DI), Z1, Z0
	VMOVDQU64  Z0, (DI)
	ADDQ       $64, SI
	ADDQ       $64, R9
	ADDQ       $64, DI
	SUBQ       $64, CX
	CMPQ       CX, $64
	JAE        g2_loop

g2_tail:
	TESTQ CX, CX
	JZ    g2_done
	TAILMASK
	VMOVDQU8.Z (SI), K1, Z0
	VMOVDQU8.Z (R9), K1, Z1
	VMOVDQU8.Z (DI), K1, Z2
	VGF2P8MULB Z14, Z0, Z0
	VGF2P8MULB Z15, Z1, Z1
	VPTERNLOGQ $0x96, Z2, Z1, Z0
	VMOVDQU8   Z0, K1, (DI)

g2_done:
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
