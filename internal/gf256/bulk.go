package gf256

import "encoding/binary"

// Bulk row operations. These are the host codec's hot path: every encode,
// recode and decode row operation reduces to dst ⊕= c·src over k-byte rows.
// Mirroring the paper's TB-0…5 ladder (Sec. 4.2), the package keeps a measured
// progression of kernels, and BenchmarkMulAddLadder runs every rung:
//
//   - the scalar reference (one table lookup and one dst read-modify-write
//     per byte; lives in the tests),
//   - the portable wide-word kernels in this file, which gather 8 table
//     products per 64-bit destination word — the fallback on hosts without a
//     SIMD rung and the oracle the SIMD rungs are tested against,
//   - the AVX2 rung (kernels_amd64.s): split-nibble VPSHUFB kernels, 32
//     products per instruction — the analogue of the paper's SSE2 CPU codec,
//     and
//   - the GFNI rung (same file): the field's reduction polynomial is the one
//     VGF2P8MULB hard-wires, so a product is one instruction over 64 bytes
//     with no table at all.
//
// Every entry point below runs the widest rung the CPU has over as much of a
// row as that rung takes (all of it on GFNI, the whole 32-byte steps on AVX2)
// and the portable kernel over what is left, so output is byte-identical on
// every host. Kernel names the rung in use.
//
// Contracts shared by all entry points: any length and any alignment; a
// source longer than the destination panics before any byte is written; a
// source may be the very same row as a destination (dst == src means
// dst ^= c·dst per byte) but rows may not partially overlap.

// rung is one step of the kernel ladder. The package dispatches to exactly
// one, active, fixed at init from the CPU and the build (kernels_amd64.go,
// kernels_generic.go); the *Vec wrappers take the rung as an argument only so
// the tests can run the rungs dispatch passes over.
type rung uint8

const (
	rungPortable rung = iota
	rungAVX2
	rungGFNI
)

func (r rung) String() string {
	return [...]string{"portable", "avx2", "gfni"}[r]
}

// Kernel names the kernel rung this process dispatches to: "gfni", "avx2" or
// "portable". It is fixed at package init from the CPU and the build; nothing
// configures it.
func Kernel() string { return active.String() }

// sameRow reports whether a and b start at the same byte, which under the
// no-partial-overlap contract means they are the same row.
func sameRow(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// AddSlice computes dst[i] ^= src[i] for every i. len(src) must not exceed
// len(dst). Rows may not partially alias (identical slices are fine and
// zero the row). GF(2^8) addition is XOR, so this is XorSlice under the
// field-arithmetic name the GF(2^8) kernels use.
func AddSlice(dst, src []byte) {
	XorSlice(dst, src)
}

// XorSlice computes dst[i] ^= src[i] for every i — the pure GF(2) row
// operation of the systematic/XOR fast path; it needs no log/exp or product
// tables. len(src) must not exceed len(dst); rows may not partially alias
// (identical slices are fine and zero the row).
func XorSlice(dst, src []byte) {
	dst = dst[:len(src)] // a longer src panics here, before any write
	if done := xorVec(active, dst, src); done < len(src) {
		xorPortable(dst[done:], src[done:])
	}
}

// xorPortable is the wide-word XOR kernel over equal-length rows: four 64-bit
// words per iteration, with 8-byte and scalar tails.
func xorPortable(dst, src []byte) {
	n := len(src)
	dst = dst[:n] // equal lengths: the first in-loop bounds check proves away the rest
	i := 0
	for ; i+32 <= n; i += 32 {
		d0 := binary.LittleEndian.Uint64(dst[i:])
		d1 := binary.LittleEndian.Uint64(dst[i+8:])
		d2 := binary.LittleEndian.Uint64(dst[i+16:])
		d3 := binary.LittleEndian.Uint64(dst[i+24:])
		binary.LittleEndian.PutUint64(dst[i:], d0^binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i+8:], d1^binary.LittleEndian.Uint64(src[i+8:]))
		binary.LittleEndian.PutUint64(dst[i+16:], d2^binary.LittleEndian.Uint64(src[i+16:]))
		binary.LittleEndian.PutUint64(dst[i+24:], d3^binary.LittleEndian.Uint64(src[i+24:]))
	}
	for ; i+8 <= n; i += 8 {
		d := binary.LittleEndian.Uint64(dst[i:])
		s := binary.LittleEndian.Uint64(src[i:])
		binary.LittleEndian.PutUint64(dst[i:], d^s)
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// XorSlice4 computes dst[i] ^= s1[i] ^ s2[i] ^ s3[i] ^ s4[i] in a single
// destination pass: the GF(2) analogue of MulAddSlice4, four sources per dst
// load/store. It is the inner kernel of the XOR-repair encoder, where a
// bitmask coefficient vector selects source blocks to fold together. The
// kernel runs over len(dst) bytes; all sources must be at least that long.
// Sources may not partially alias dst.
func XorSlice4(dst, s1, s2, s3, s4 []byte) {
	n := len(dst)
	s1, s2, s3, s4 = s1[:n], s2[:n], s3[:n], s4[:n]
	if done := xor4Vec(active, dst, s1, s2, s3, s4); done < n {
		xor4Portable(dst[done:], s1[done:], s2[done:], s3[done:], s4[done:])
	}
}

// xor4Portable is the wide-word four-source XOR kernel, 16 bytes per
// iteration.
func xor4Portable(dst, s1, s2, s3, s4 []byte) {
	n := len(dst)
	s1 = s1[:n] // equal lengths: the first in-loop bounds check
	s2 = s2[:n] // proves away the rest
	s3 = s3[:n]
	s4 = s4[:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		a := binary.LittleEndian.Uint64(s1[i:]) ^
			binary.LittleEndian.Uint64(s2[i:]) ^
			binary.LittleEndian.Uint64(s3[i:]) ^
			binary.LittleEndian.Uint64(s4[i:])
		b := binary.LittleEndian.Uint64(s1[i+8:]) ^
			binary.LittleEndian.Uint64(s2[i+8:]) ^
			binary.LittleEndian.Uint64(s3[i+8:]) ^
			binary.LittleEndian.Uint64(s4[i+8:])
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^a)
		binary.LittleEndian.PutUint64(dst[i+8:], binary.LittleEndian.Uint64(dst[i+8:])^b)
	}
	for ; i+8 <= n; i += 8 {
		a := binary.LittleEndian.Uint64(s1[i:]) ^
			binary.LittleEndian.Uint64(s2[i:]) ^
			binary.LittleEndian.Uint64(s3[i:]) ^
			binary.LittleEndian.Uint64(s4[i:])
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^a)
	}
	for ; i < n; i++ {
		dst[i] ^= s1[i] ^ s2[i] ^ s3[i] ^ s4[i]
	}
}

// MulAddSlice computes dst[i] ^= c·src[i] — the fundamental network-coding
// row operation.
func MulAddSlice(dst, src []byte, c byte) {
	switch c {
	case 0:
		return
	case 1:
		XorSlice(dst, src)
		return
	}
	dst = dst[:len(src)] // a longer src panics here, before any write
	if done := mulAddVec(active, dst, src, c); done < len(src) {
		mulAddPortable(dst[done:], src[done:], c)
	}
}

// mulAddPortable gathers 8 table products per 64-bit word: one src load, eight
// row lookups, one dst load and one dst store per 8 bytes. Compared to the
// scalar reference it eliminates seven of every eight dst read-modify-writes
// and their bounds checks. (A bit-sliced kernel used to take rows under 16
// bytes; re-measured against a warm table it loses at every length.)
func mulAddPortable(dst, src []byte, c byte) {
	row := &_tables.mul[c]
	n := len(src)
	dst = dst[:n] // equal lengths let one bounds check dominate the loop body
	i := 0
	for ; i+16 <= n; i += 16 {
		s := binary.LittleEndian.Uint64(src[i:])
		u := binary.LittleEndian.Uint64(src[i+8:])
		v := uint64(row[byte(s)]) |
			uint64(row[byte(s>>8)])<<8 |
			uint64(row[byte(s>>16)])<<16 |
			uint64(row[byte(s>>24)])<<24 |
			uint64(row[byte(s>>32)])<<32 |
			uint64(row[byte(s>>40)])<<40 |
			uint64(row[byte(s>>48)])<<48 |
			uint64(row[byte(s>>56)])<<56
		w := uint64(row[byte(u)]) |
			uint64(row[byte(u>>8)])<<8 |
			uint64(row[byte(u>>16)])<<16 |
			uint64(row[byte(u>>24)])<<24 |
			uint64(row[byte(u>>32)])<<32 |
			uint64(row[byte(u>>40)])<<40 |
			uint64(row[byte(u>>48)])<<48 |
			uint64(row[byte(u>>56)])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
		binary.LittleEndian.PutUint64(dst[i+8:], binary.LittleEndian.Uint64(dst[i+8:])^w)
	}
	for ; i+8 <= n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		v := uint64(row[byte(s)]) |
			uint64(row[byte(s>>8)])<<8 |
			uint64(row[byte(s>>16)])<<16 |
			uint64(row[byte(s>>24)])<<24 |
			uint64(row[byte(s>>32)])<<32 |
			uint64(row[byte(s>>40)])<<40 |
			uint64(row[byte(s>>48)])<<48 |
			uint64(row[byte(s>>56)])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
	}
	for ; i < n; i++ {
		dst[i] ^= row[src[i]]
	}
}

// MulAddSlice2 computes dst[i] ^= c1·src1[i] ^ c2·src2[i]. The kernel runs
// over len(dst) bytes; both sources must be at least that long. Zero
// coefficients degrade to the single-source kernel.
//
// The GFNI rung has a fused body: each destination word is loaded and stored
// once for both sources. The AVX2 rung composes two single-source passes —
// fusing saves only destination traffic while every source still pays its own
// nibble split, shuffles and XORs, which is what the vector units run out of,
// and a fused body measured 1.12× there, under the 1.15× one has to show to be
// kept. A source that is dst itself must be read before dst changes, so with
// passes that case (and rows under one SIMD step) takes the portable kernel,
// which reads every source byte before each store.
func MulAddSlice2(dst, src1, src2 []byte, c1, c2 byte) {
	n := len(dst)
	src1, src2 = src1[:n], src2[:n]
	if c1 == 0 {
		MulAddSlice(dst, src2, c2)
		return
	}
	if c2 == 0 {
		MulAddSlice(dst, src1, c1)
		return
	}
	if mulAdd2Vec(active, dst, src1, src2, c1, c2) == n {
		return
	}
	if active.vecLen(n) == 0 || sameRow(dst, src1) || sameRow(dst, src2) {
		mulAdd2Portable(dst, src1, src2, c1, c2)
		return
	}
	MulAddSlice(dst, src1, c1)
	MulAddSlice(dst, src2, c2)
}

// mulAdd2Portable is the wide-word two-source kernel: each destination word
// is loaded and stored once for both sources. Coefficient 1 flows through the
// table's identity row unchanged.
func mulAdd2Portable(dst, src1, src2 []byte, c1, c2 byte) {
	r1 := &_tables.mul[c1]
	r2 := &_tables.mul[c2]
	n := len(dst)
	src1 = src1[:n] // equal lengths: the first in-loop bounds check
	src2 = src2[:n] // proves away the rest
	i := 0
	for ; i+8 <= n; i += 8 {
		a := binary.LittleEndian.Uint64(src1[i:])
		b := binary.LittleEndian.Uint64(src2[i:])
		v := uint64(r1[byte(a)]^r2[byte(b)]) |
			uint64(r1[byte(a>>8)]^r2[byte(b>>8)])<<8 |
			uint64(r1[byte(a>>16)]^r2[byte(b>>16)])<<16 |
			uint64(r1[byte(a>>24)]^r2[byte(b>>24)])<<24 |
			uint64(r1[byte(a>>32)]^r2[byte(b>>32)])<<32 |
			uint64(r1[byte(a>>40)]^r2[byte(b>>40)])<<40 |
			uint64(r1[byte(a>>48)]^r2[byte(b>>48)])<<48 |
			uint64(r1[byte(a>>56)]^r2[byte(b>>56)])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
	}
	for ; i < n; i++ {
		dst[i] ^= r1[src1[i]] ^ r2[src2[i]]
	}
}

// MulAddSlice4 computes dst[i] ^= c1·s1[i] ^ c2·s2[i] ^ c3·s3[i] ^ c4·s4[i].
// The kernel runs over len(dst) bytes; all sources must be at least that
// long. With two or fewer live coefficients it drops to the narrower kernels.
// Like MulAddSlice2 it is one fused pass on the GFNI rung, single-source
// passes on the AVX2 rung, and the portable kernel for sources that are dst
// itself and for rows under one SIMD step.
func MulAddSlice4(dst, s1, s2, s3, s4 []byte, c1, c2, c3, c4 byte) {
	n := len(dst)
	s1, s2, s3, s4 = s1[:n], s2[:n], s3[:n], s4[:n]
	if c1 == 0 || c2 == 0 || c3 == 0 || c4 == 0 {
		srcs := [4][]byte{s1, s2, s3, s4}
		cs := [4]byte{c1, c2, c3, c4}
		live := 0
		for j := 0; j < 4; j++ {
			if cs[j] != 0 {
				srcs[live], cs[live] = srcs[j], cs[j]
				live++
			}
		}
		switch live {
		case 0:
			return
		case 1:
			MulAddSlice(dst, srcs[0], cs[0])
			return
		case 2:
			MulAddSlice2(dst, srcs[0], srcs[1], cs[0], cs[1])
			return
		}
	}
	if mulAdd4Vec(active, dst, s1, s2, s3, s4, c1, c2, c3, c4) == n {
		return
	}
	if active.vecLen(n) == 0 || sameRow(dst, s1) || sameRow(dst, s2) || sameRow(dst, s3) || sameRow(dst, s4) {
		mulAdd4Portable(dst, s1, s2, s3, s4, c1, c2, c3, c4)
		return
	}
	MulAddSlice(dst, s1, c1)
	MulAddSlice(dst, s2, c2)
	MulAddSlice(dst, s3, c3)
	MulAddSlice(dst, s4, c4)
}

// mulAdd4Portable is the wide-word four-source kernel: four coefficient·source
// pairs per dst word load/store. A zero coefficient runs on the table's zero
// row, so every source byte is still read before each store.
func mulAdd4Portable(dst, s1, s2, s3, s4 []byte, c1, c2, c3, c4 byte) {
	r1 := &_tables.mul[c1]
	r2 := &_tables.mul[c2]
	r3 := &_tables.mul[c3]
	r4 := &_tables.mul[c4]
	n := len(dst)
	s1 = s1[:n] // equal lengths: the first in-loop bounds check
	s2 = s2[:n] // proves away the rest
	s3 = s3[:n]
	s4 = s4[:n]
	i := 0
	for ; i+16 <= n; i += 16 {
		a := binary.LittleEndian.Uint64(s1[i:])
		b := binary.LittleEndian.Uint64(s2[i:])
		c := binary.LittleEndian.Uint64(s3[i:])
		d := binary.LittleEndian.Uint64(s4[i:])
		v := uint64(r1[byte(a)]^r2[byte(b)]^r3[byte(c)]^r4[byte(d)]) |
			uint64(r1[byte(a>>8)]^r2[byte(b>>8)]^r3[byte(c>>8)]^r4[byte(d>>8)])<<8 |
			uint64(r1[byte(a>>16)]^r2[byte(b>>16)]^r3[byte(c>>16)]^r4[byte(d>>16)])<<16 |
			uint64(r1[byte(a>>24)]^r2[byte(b>>24)]^r3[byte(c>>24)]^r4[byte(d>>24)])<<24 |
			uint64(r1[byte(a>>32)]^r2[byte(b>>32)]^r3[byte(c>>32)]^r4[byte(d>>32)])<<32 |
			uint64(r1[byte(a>>40)]^r2[byte(b>>40)]^r3[byte(c>>40)]^r4[byte(d>>40)])<<40 |
			uint64(r1[byte(a>>48)]^r2[byte(b>>48)]^r3[byte(c>>48)]^r4[byte(d>>48)])<<48 |
			uint64(r1[byte(a>>56)]^r2[byte(b>>56)]^r3[byte(c>>56)]^r4[byte(d>>56)])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
		a = binary.LittleEndian.Uint64(s1[i+8:])
		b = binary.LittleEndian.Uint64(s2[i+8:])
		c = binary.LittleEndian.Uint64(s3[i+8:])
		d = binary.LittleEndian.Uint64(s4[i+8:])
		v = uint64(r1[byte(a)]^r2[byte(b)]^r3[byte(c)]^r4[byte(d)]) |
			uint64(r1[byte(a>>8)]^r2[byte(b>>8)]^r3[byte(c>>8)]^r4[byte(d>>8)])<<8 |
			uint64(r1[byte(a>>16)]^r2[byte(b>>16)]^r3[byte(c>>16)]^r4[byte(d>>16)])<<16 |
			uint64(r1[byte(a>>24)]^r2[byte(b>>24)]^r3[byte(c>>24)]^r4[byte(d>>24)])<<24 |
			uint64(r1[byte(a>>32)]^r2[byte(b>>32)]^r3[byte(c>>32)]^r4[byte(d>>32)])<<32 |
			uint64(r1[byte(a>>40)]^r2[byte(b>>40)]^r3[byte(c>>40)]^r4[byte(d>>40)])<<40 |
			uint64(r1[byte(a>>48)]^r2[byte(b>>48)]^r3[byte(c>>48)]^r4[byte(d>>48)])<<48 |
			uint64(r1[byte(a>>56)]^r2[byte(b>>56)]^r3[byte(c>>56)]^r4[byte(d>>56)])<<56
		binary.LittleEndian.PutUint64(dst[i+8:], binary.LittleEndian.Uint64(dst[i+8:])^v)
	}
	for ; i+8 <= n; i += 8 {
		a := binary.LittleEndian.Uint64(s1[i:])
		b := binary.LittleEndian.Uint64(s2[i:])
		c := binary.LittleEndian.Uint64(s3[i:])
		d := binary.LittleEndian.Uint64(s4[i:])
		v := uint64(r1[byte(a)]^r2[byte(b)]^r3[byte(c)]^r4[byte(d)]) |
			uint64(r1[byte(a>>8)]^r2[byte(b>>8)]^r3[byte(c>>8)]^r4[byte(d>>8)])<<8 |
			uint64(r1[byte(a>>16)]^r2[byte(b>>16)]^r3[byte(c>>16)]^r4[byte(d>>16)])<<16 |
			uint64(r1[byte(a>>24)]^r2[byte(b>>24)]^r3[byte(c>>24)]^r4[byte(d>>24)])<<24 |
			uint64(r1[byte(a>>32)]^r2[byte(b>>32)]^r3[byte(c>>32)]^r4[byte(d>>32)])<<32 |
			uint64(r1[byte(a>>40)]^r2[byte(b>>40)]^r3[byte(c>>40)]^r4[byte(d>>40)])<<40 |
			uint64(r1[byte(a>>48)]^r2[byte(b>>48)]^r3[byte(c>>48)]^r4[byte(d>>48)])<<48 |
			uint64(r1[byte(a>>56)]^r2[byte(b>>56)]^r3[byte(c>>56)]^r4[byte(d>>56)])<<56
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
	}
	for ; i < n; i++ {
		dst[i] ^= r1[s1[i]] ^ r2[s2[i]] ^ r3[s3[i]] ^ r4[s4[i]]
	}
}

// MulAddSlice4x2 applies the same four sources to two destinations at once:
//
//	d1[i] ^= ca[0]·s1[i] ^ ca[1]·s2[i] ^ ca[2]·s3[i] ^ ca[3]·s4[i]
//	d2[i] ^= cb[0]·s1[i] ^ cb[1]·s2[i] ^ cb[2]·s3[i] ^ cb[3]·s4[i]
//
// This is the widest rung of the ladder and the inner kernel of the tiled
// batch encoder: every source is split once for both destinations. Both
// destinations must be the same length; sources must be at least that long.
// Any zero coefficient drops to MulAddSlice4, which skips zeros. The AVX2
// body is two 2-source passes, so a source that is also a destination takes
// the portable kernel, which reads every source byte before each store.
func MulAddSlice4x2(d1, d2, s1, s2, s3, s4 []byte, ca, cb [4]byte) {
	n := len(d1)
	d2, s1, s2, s3, s4 = d2[:n], s1[:n], s2[:n], s3[:n], s4[:n]
	for _, s := range [4][]byte{s1, s2, s3, s4} {
		if sameRow(d1, s) || sameRow(d2, s) {
			mulAdd4x2Portable(d1, d2, s1, s2, s3, s4, ca, cb)
			return
		}
	}
	if ca[0] == 0 || ca[1] == 0 || ca[2] == 0 || ca[3] == 0 ||
		cb[0] == 0 || cb[1] == 0 || cb[2] == 0 || cb[3] == 0 {
		MulAddSlice4(d1, s1, s2, s3, s4, ca[0], ca[1], ca[2], ca[3])
		MulAddSlice4(d2, s1, s2, s3, s4, cb[0], cb[1], cb[2], cb[3])
		return
	}
	if done := mulAdd4x2Vec(active, d1, d2, s1, s2, s3, s4, ca, cb); done < n {
		mulAdd4x2Portable(d1[done:], d2[done:], s1[done:], s2[done:], s3[done:], s4[done:], ca, cb)
	}
}

// mulAdd4x2Portable is the wide-word four-source, two-destination kernel: the
// four source words and the 32 extracted source bytes are loaded and shifted
// once, then feed both destinations' table lookups. Zero coefficients flow
// through the table's zero row.
func mulAdd4x2Portable(d1, d2, s1, s2, s3, s4 []byte, ca, cb [4]byte) {
	ra1 := &_tables.mul[ca[0]]
	ra2 := &_tables.mul[ca[1]]
	ra3 := &_tables.mul[ca[2]]
	ra4 := &_tables.mul[ca[3]]
	rb1 := &_tables.mul[cb[0]]
	rb2 := &_tables.mul[cb[1]]
	rb3 := &_tables.mul[cb[2]]
	rb4 := &_tables.mul[cb[3]]
	n := len(d1)
	d2 = d2[:n] // equal lengths: the first in-loop bounds check
	s1 = s1[:n] // proves away the rest
	s2 = s2[:n]
	s3 = s3[:n]
	s4 = s4[:n]
	i := 0
	// Two destination words per iteration: the second word's gathers are
	// independent of the first's accumulation chain, so the out-of-order core
	// overlaps their table lookups instead of serializing on v/u.
	for ; i+16 <= n; i += 16 {
		a := binary.LittleEndian.Uint64(s1[i:])
		b := binary.LittleEndian.Uint64(s2[i:])
		c := binary.LittleEndian.Uint64(s3[i:])
		d := binary.LittleEndian.Uint64(s4[i:])
		a2 := binary.LittleEndian.Uint64(s1[i+8:])
		b2 := binary.LittleEndian.Uint64(s2[i+8:])
		c2 := binary.LittleEndian.Uint64(s3[i+8:])
		d2w := binary.LittleEndian.Uint64(s4[i+8:])
		x, y, z, w := byte(a), byte(b), byte(c), byte(d)
		v := uint64(ra1[x] ^ ra2[y] ^ ra3[z] ^ ra4[w])
		u := uint64(rb1[x] ^ rb2[y] ^ rb3[z] ^ rb4[w])
		x, y, z, w = byte(a2), byte(b2), byte(c2), byte(d2w)
		v2 := uint64(ra1[x] ^ ra2[y] ^ ra3[z] ^ ra4[w])
		u2 := uint64(rb1[x] ^ rb2[y] ^ rb3[z] ^ rb4[w])
		x, y, z, w = byte(a>>8), byte(b>>8), byte(c>>8), byte(d>>8)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 8
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 8
		x, y, z, w = byte(a2>>8), byte(b2>>8), byte(c2>>8), byte(d2w>>8)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 8
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 8
		x, y, z, w = byte(a>>16), byte(b>>16), byte(c>>16), byte(d>>16)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 16
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 16
		x, y, z, w = byte(a2>>16), byte(b2>>16), byte(c2>>16), byte(d2w>>16)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 16
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 16
		x, y, z, w = byte(a>>24), byte(b>>24), byte(c>>24), byte(d>>24)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 24
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 24
		x, y, z, w = byte(a2>>24), byte(b2>>24), byte(c2>>24), byte(d2w>>24)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 24
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 24
		x, y, z, w = byte(a>>32), byte(b>>32), byte(c>>32), byte(d>>32)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 32
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 32
		x, y, z, w = byte(a2>>32), byte(b2>>32), byte(c2>>32), byte(d2w>>32)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 32
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 32
		x, y, z, w = byte(a>>40), byte(b>>40), byte(c>>40), byte(d>>40)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 40
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 40
		x, y, z, w = byte(a2>>40), byte(b2>>40), byte(c2>>40), byte(d2w>>40)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 40
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 40
		x, y, z, w = byte(a>>48), byte(b>>48), byte(c>>48), byte(d>>48)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 48
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 48
		x, y, z, w = byte(a2>>48), byte(b2>>48), byte(c2>>48), byte(d2w>>48)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 48
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 48
		x, y, z, w = byte(a>>56), byte(b>>56), byte(c>>56), byte(d>>56)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 56
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 56
		x, y, z, w = byte(a2>>56), byte(b2>>56), byte(c2>>56), byte(d2w>>56)
		v2 |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 56
		u2 |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 56
		binary.LittleEndian.PutUint64(d1[i:], binary.LittleEndian.Uint64(d1[i:])^v)
		binary.LittleEndian.PutUint64(d2[i:], binary.LittleEndian.Uint64(d2[i:])^u)
		binary.LittleEndian.PutUint64(d1[i+8:], binary.LittleEndian.Uint64(d1[i+8:])^v2)
		binary.LittleEndian.PutUint64(d2[i+8:], binary.LittleEndian.Uint64(d2[i+8:])^u2)
	}
	for ; i+8 <= n; i += 8 {
		a := binary.LittleEndian.Uint64(s1[i:])
		b := binary.LittleEndian.Uint64(s2[i:])
		c := binary.LittleEndian.Uint64(s3[i:])
		d := binary.LittleEndian.Uint64(s4[i:])
		x, y, z, w := byte(a), byte(b), byte(c), byte(d)
		v := uint64(ra1[x] ^ ra2[y] ^ ra3[z] ^ ra4[w])
		u := uint64(rb1[x] ^ rb2[y] ^ rb3[z] ^ rb4[w])
		x, y, z, w = byte(a>>8), byte(b>>8), byte(c>>8), byte(d>>8)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 8
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 8
		x, y, z, w = byte(a>>16), byte(b>>16), byte(c>>16), byte(d>>16)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 16
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 16
		x, y, z, w = byte(a>>24), byte(b>>24), byte(c>>24), byte(d>>24)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 24
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 24
		x, y, z, w = byte(a>>32), byte(b>>32), byte(c>>32), byte(d>>32)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 32
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 32
		x, y, z, w = byte(a>>40), byte(b>>40), byte(c>>40), byte(d>>40)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 40
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 40
		x, y, z, w = byte(a>>48), byte(b>>48), byte(c>>48), byte(d>>48)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 48
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 48
		x, y, z, w = byte(a>>56), byte(b>>56), byte(c>>56), byte(d>>56)
		v |= uint64(ra1[x]^ra2[y]^ra3[z]^ra4[w]) << 56
		u |= uint64(rb1[x]^rb2[y]^rb3[z]^rb4[w]) << 56
		binary.LittleEndian.PutUint64(d1[i:], binary.LittleEndian.Uint64(d1[i:])^v)
		binary.LittleEndian.PutUint64(d2[i:], binary.LittleEndian.Uint64(d2[i:])^u)
	}
	for ; i < n; i++ {
		x, y, z, w := s1[i], s2[i], s3[i], s4[i]
		d1[i] ^= ra1[x] ^ ra2[y] ^ ra3[z] ^ ra4[w]
		d2[i] ^= rb1[x] ^ rb2[y] ^ rb3[z] ^ rb4[w]
	}
}

// MulSlice computes dst[i] = c·src[i] (no accumulation). dst may be src.
func MulSlice(dst, src []byte, c byte) {
	dst = dst[:len(src)] // a longer src panics here, before any write
	if c == 0 {
		clear(dst)
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	done := mulVec(active, dst, src, c)
	row := &_tables.mul[c]
	for i, v := range src[done:] {
		dst[done+i] = row[v]
	}
}

// ScaleSlice computes dst[i] = c·dst[i] in place.
func ScaleSlice(dst []byte, c byte) {
	MulSlice(dst, dst, c)
}

// DotProduct returns the GF(2^8) inner product of coefficient vector coeffs
// with the byte columns of rows: out[j] = Σ_i coeffs[i]·rows[i][j].
// All rows must be at least len(out) long. out is overwritten. Rows are
// consumed four at a time through MulAddSlice4, which the portable and GFNI
// rungs fuse into one out load/store per quadruple.
func DotProduct(out []byte, coeffs []byte, rows [][]byte) {
	clear(out)
	w := len(out)
	i := 0
	for ; i+4 <= len(coeffs); i += 4 {
		c1, c2, c3, c4 := coeffs[i], coeffs[i+1], coeffs[i+2], coeffs[i+3]
		if c1|c2|c3|c4 == 0 {
			continue
		}
		MulAddSlice4(out, rows[i][:w], rows[i+1][:w], rows[i+2][:w], rows[i+3][:w], c1, c2, c3, c4)
	}
	if i+2 <= len(coeffs) {
		MulAddSlice2(out, rows[i][:w], rows[i+1][:w], coeffs[i], coeffs[i+1])
		i += 2
	}
	for ; i < len(coeffs); i++ {
		if c := coeffs[i]; c != 0 {
			MulAddSlice(out, rows[i][:w], c)
		}
	}
}
