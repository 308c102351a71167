package gf256

import (
	"fmt"
	"math/rand"
	"testing"
)

// Differential coverage for the bulk kernels. Every entry point is pinned
// against a byte-at-a-time mulSlow reference three ways: through the entry
// point itself (whatever rung Kernel() dispatches to), through its portable
// wide-word kernel called directly, and through the kernels of every rung
// this CPU has, called directly — dispatch picks one rung per host, and the
// narrower ones must not go dark on the hosts CI happens to run on. Lengths
// 0–257 plus 4095/4096/4097 exercise every SIMD step count and every odd
// tail; rows start at offsets 0–31 from their allocation so no kernel can
// lean on alignment.

// kernelLengths is the row-length sweep of the differential tests.
func kernelLengths() []int {
	ls := make([]int, 0, 261)
	for n := 0; n <= 257; n++ {
		ls = append(ls, n)
	}
	return append(ls, 4095, 4096, 4097)
}

// offsetRow returns n random bytes that start off bytes into a fresh
// allocation, with capacity clipped so an overrun faults instead of landing in
// slack.
func offsetRow(rng *rand.Rand, n, off int) []byte {
	buf := make([]byte, off+n)
	rng.Read(buf)
	return buf[off : off+n : off+n]
}

// offsetCopy is offsetRow with the bytes of row instead of random ones.
func offsetCopy(row []byte, off int) []byte {
	buf := make([]byte, off+len(row))
	copy(buf[off:], row)
	return buf[off : off+len(row) : off+len(row)]
}

// mulAddTableScalar is the scalar reference rung — one dst read-modify-write
// per table lookup — that BenchmarkMulAddLadder measures the wide and SIMD
// kernels against.
func mulAddTableScalar(dst, src []byte, c byte) {
	row := &_tables.mul[c]
	n := len(src)
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] ^= row[src[i]]
		dst[i+1] ^= row[src[i+1]]
		dst[i+2] ^= row[src[i+2]]
		dst[i+3] ^= row[src[i+3]]
	}
	for ; i < n; i++ {
		dst[i] ^= row[src[i]]
	}
}

// kernelShape describes one multiply-accumulate entry point: nd destinations
// each accumulating ns coefficient·source products, with the coefficient of
// source j into destination i at c[i*ns+j]. entry is the exported entry point
// (whatever rung it dispatches to), portable the wide-word kernel under it,
// and vec the wrapper that runs one named rung's kernel over as much of the
// rows as that rung takes, returning how much that was. The entry points run
// over the destination length and accept longer sources; the portable kernels
// and the wrappers take equal-length rows. The XOR shapes take no
// coefficients: the harness checks them as all-ones whatever it is handed.
type kernelShape struct {
	name     string
	nd, ns   int
	entry    func(d, s [][]byte, c []byte)
	portable func(d, s [][]byte, c []byte)
	vec      func(r rung, d, s [][]byte, c []byte) int
	xor      bool
}

// onRung is what an entry point does once dispatch has picked rung r: the
// rung's kernel over the prefix it takes, the portable kernel over the rest.
func (k kernelShape) onRung(r rung, d, s [][]byte, c []byte) {
	n := len(d[0])
	done := k.vec(r, d, s, c)
	if done == n {
		return
	}
	dt, st := make([][]byte, len(d)), make([][]byte, len(s))
	for i := range d {
		dt[i] = d[i][done:]
	}
	for j := range s {
		st[j] = s[j][done:n]
	}
	k.portable(dt, st, c)
}

var (
	shapeMulAdd = kernelShape{"MulAddSlice", 1, 1,
		func(d, s [][]byte, c []byte) { MulAddSlice(d[0], s[0][:len(d[0])], c[0]) },
		func(d, s [][]byte, c []byte) { mulAddPortable(d[0], s[0], c[0]) },
		func(r rung, d, s [][]byte, c []byte) int { return mulAddVec(r, d[0], s[0], c[0]) }, false}
	shapeMulAdd2 = kernelShape{"MulAddSlice2", 1, 2,
		func(d, s [][]byte, c []byte) { MulAddSlice2(d[0], s[0], s[1], c[0], c[1]) },
		func(d, s [][]byte, c []byte) { mulAdd2Portable(d[0], s[0], s[1], c[0], c[1]) },
		func(r rung, d, s [][]byte, c []byte) int { return mulAdd2Vec(r, d[0], s[0], s[1], c[0], c[1]) }, false}
	shapeMulAdd4 = kernelShape{"MulAddSlice4", 1, 4,
		func(d, s [][]byte, c []byte) { MulAddSlice4(d[0], s[0], s[1], s[2], s[3], c[0], c[1], c[2], c[3]) },
		func(d, s [][]byte, c []byte) { mulAdd4Portable(d[0], s[0], s[1], s[2], s[3], c[0], c[1], c[2], c[3]) },
		func(r rung, d, s [][]byte, c []byte) int {
			return mulAdd4Vec(r, d[0], s[0], s[1], s[2], s[3], c[0], c[1], c[2], c[3])
		}, false}
	shapeMulAdd4x2 = kernelShape{"MulAddSlice4x2", 2, 4,
		func(d, s [][]byte, c []byte) {
			MulAddSlice4x2(d[0], d[1], s[0], s[1], s[2], s[3], [4]byte(c[:4]), [4]byte(c[4:]))
		},
		func(d, s [][]byte, c []byte) {
			mulAdd4x2Portable(d[0], d[1], s[0], s[1], s[2], s[3], [4]byte(c[:4]), [4]byte(c[4:]))
		},
		func(r rung, d, s [][]byte, c []byte) int {
			// The AVX2 body is two passes: as in the entry point, a source
			// that is also a destination stays off it.
			for _, src := range s {
				if r == rungAVX2 && (sameRow(d[0], src) || sameRow(d[1], src)) {
					return 0
				}
			}
			return mulAdd4x2Vec(r, d[0], d[1], s[0], s[1], s[2], s[3], [4]byte(c[:4]), [4]byte(c[4:]))
		}, false}
	shapeXor = kernelShape{"XorSlice", 1, 1,
		func(d, s [][]byte, c []byte) { XorSlice(d[0], s[0][:len(d[0])]) },
		func(d, s [][]byte, c []byte) { xorPortable(d[0], s[0]) },
		func(r rung, d, s [][]byte, c []byte) int { return xorVec(r, d[0], s[0]) }, true}
	shapeXor4 = kernelShape{"XorSlice4", 1, 4,
		func(d, s [][]byte, c []byte) { XorSlice4(d[0], s[0], s[1], s[2], s[3]) },
		func(d, s [][]byte, c []byte) { xor4Portable(d[0], s[0], s[1], s[2], s[3]) },
		func(r rung, d, s [][]byte, c []byte) int { return xor4Vec(r, d[0], s[0], s[1], s[2], s[3]) }, true}

	allShapes = []kernelShape{shapeMulAdd, shapeMulAdd2, shapeMulAdd4, shapeMulAdd4x2, shapeXor, shapeXor4}
)

// ones is the coefficient vector of the XOR shapes.
var ones = []byte{1, 1, 1, 1}

func cloneRows(rows [][]byte) [][]byte {
	out := make([][]byte, len(rows))
	for i, r := range rows {
		out[i] = append([]byte(nil), r...)
	}
	return out
}

// checkRows runs the shape's entry point, its portable kernel and every
// rung's kernels over the given rows and compares each with the mulSlow
// reference. A source may be the same slice as a destination: the reference
// then reads the destination's original bytes, the per-byte meaning of an
// aliased call.
func (k kernelShape) checkRows(t *testing.T, d, s [][]byte, c []byte) {
	t.Helper()
	if k.xor {
		c = ones
	}
	n := len(d[0])
	want := cloneRows(d)
	for i := range want {
		for b := 0; b < n; b++ {
			for j := range s {
				want[i][b] ^= mulSlow(s[j][b], c[i*k.ns+j])
			}
		}
	}
	srcCopy := cloneRows(s)

	// equalLen returns equal-length copies of the rows that reproduce the
	// aliasing, for the kernels that take their rows that way.
	equalLen := func() (cd, cs [][]byte) {
		cd = cloneRows(d)
		cs = make([][]byte, len(s))
		for j := range s {
			cs[j] = append([]byte(nil), srcCopy[j][:n]...)
			for i := range d {
				if sameRow(s[j], d[i]) {
					cs[j] = cd[i]
				}
			}
		}
		return cd, cs
	}
	verify := func(how string, got [][]byte) {
		t.Helper()
		for i := range want {
			for b := 0; b < n; b++ {
				if got[i][b] != want[i][b] {
					t.Fatalf("%s (%s) len %d c=%#x: dst %d byte %d = %#x, want %#x",
						k.name, how, n, c, i, b, got[i][b], want[i][b])
				}
			}
		}
	}

	pd, ps := equalLen()
	k.portable(pd, ps, c)
	verify("portable kernel", pd)
	for _, r := range rungs() {
		rd, rs := equalLen()
		k.onRung(r, rd, rs, c)
		verify(r.String()+" rung", rd)
	}
	k.entry(d, s, c)
	verify("entry point on "+Kernel(), d)

	for j := range s {
		aliased := false
		for i := range d {
			aliased = aliased || sameRow(s[j], d[i])
		}
		if !aliased && string(s[j]) != string(srcCopy[j]) {
			t.Fatalf("%s len %d: source %d was written", k.name, n, j)
		}
	}
}

// check builds fresh rows of n bytes at random offsets 0–31 from their
// allocations — sources srcExtra bytes longer than the destinations — and
// runs checkRows. alias[j] ≥ 0 makes source j the very same row as
// destination alias[j].
func (k kernelShape) check(t *testing.T, rng *rand.Rand, n, srcExtra int, c []byte, alias []int) {
	t.Helper()
	d := make([][]byte, k.nd)
	for i := range d {
		d[i] = offsetRow(rng, n, rng.Intn(32))
	}
	s := make([][]byte, k.ns)
	for j := range s {
		if alias != nil && alias[j] >= 0 {
			s[j] = d[alias[j]]
			continue
		}
		s[j] = offsetRow(rng, n+srcExtra, rng.Intn(32))
	}
	k.checkRows(t, d, s, c)
}

// sweep checks every length in kernelLengths against every coefficient set,
// alternating between sources exactly as long as the destination and longer.
func (k kernelShape) sweep(t *testing.T, seed int64, coeffSets [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	for _, n := range kernelLengths() {
		for i, c := range coeffSets {
			k.check(t, rng, n, (n+i)%2*5, c, nil)
		}
	}
}

func TestMulAddSliceEveryCoefficient(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range kernelLengths() {
		for c := 0; c < 256; c++ {
			shapeMulAdd.check(t, rng, n, 0, []byte{byte(c)}, nil)
		}
	}
}

// TestMulAddTableWideMatchesReference pins the portable wide-word kernel, and
// the scalar rung that anchors the ladder, against mulSlow.
func TestMulAddTableWideMatchesReference(t *testing.T) {
	shapeMulAdd.sweep(t, 10, [][]byte{{2}, {3}, {0x53}, {0x80}, {0xA7}, {0xFF}})
	scalar := kernelShape{"mulAddTableScalar", 1, 1,
		func(d, s [][]byte, c []byte) { mulAddTableScalar(d[0], s[0][:len(d[0])], c[0]) },
		shapeMulAdd.portable, shapeMulAdd.vec, false}
	scalar.sweep(t, 10, [][]byte{{2}, {0xA7}, {0xFF}})
}

func TestMulAddSlice2MatchesReference(t *testing.T) {
	shapeMulAdd2.sweep(t, 11, [][]byte{{2, 3}, {0, 0x57}, {0x57, 0}, {1, 0xFF}, {0xA7, 0x1D}, {0, 0}})
}

func TestMulAddSlice4MatchesReference(t *testing.T) {
	shapeMulAdd4.sweep(t, 12, [][]byte{
		{2, 3, 4, 5},
		{0, 1, 0xFF, 0x80},
		{0x57, 0, 0, 0x13},
		{0, 0, 0, 0},
		{1, 1, 1, 1},
		{0xA7, 0x1D, 0x53, 0xCA},
		{0, 0, 0, 0x29},
	})
}

func TestMulAddSlice4x2MatchesReference(t *testing.T) {
	shapeMulAdd4x2.sweep(t, 18, [][]byte{
		{2, 3, 4, 5, 6, 7, 8, 9},
		{0xA7, 0x1D, 0x53, 0xCA, 0x29, 0x77, 0xFE, 0x02},
		{1, 1, 1, 1, 0xFF, 0x80, 0x40, 0x20},
		{0, 3, 4, 5, 6, 7, 8, 9}, // zero in first set → narrower kernels
		{2, 3, 4, 5, 6, 0, 8, 9}, // zero in second set
		{0, 0, 0, 0, 0, 0, 0, 0}, // fully zero
		{1, 0, 0xFF, 0, 0, 0x57, 0, 1},
	})
}

// TestKernelMisalignment walks dst and src through every pair of offsets 0–31
// from their allocations at lengths around one and two SIMD steps.
func TestKernelMisalignment(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	coeffs := []byte{0xA7, 0x1D, 0x53, 0xCA, 0x29, 0x77, 0xFE, 0x02}
	for _, k := range []kernelShape{shapeMulAdd, shapeXor} {
		for _, n := range []int{31, 32, 33, 64, 95, 257} {
			for do := 0; do < 32; do++ {
				for so := 0; so < 32; so++ {
					d := [][]byte{offsetRow(rng, n, do)}
					s := [][]byte{offsetRow(rng, n, so)}
					k.checkRows(t, d, s, coeffs)
				}
			}
		}
	}
	// The fused shapes draw every row's offset at random; enough draws cover
	// the residues of each operand.
	for _, k := range []kernelShape{shapeMulAdd4x2, shapeXor4} {
		for trial := 0; trial < 400; trial++ {
			k.check(t, rng, 64+trial%70, 0, coeffs, nil)
		}
	}
}

// TestMulAddAliasedDst pins the aliasing contract of every entry point: a
// source that is the destination row itself contributes the destination's
// original bytes, so MulAddSlice(d, d, c) is d ^= c·d per byte and
// MulAddSlice4(d, d, d, d, d, …) is d ^= (c1⊕c2⊕c3⊕c4)·d.
func TestMulAddAliasedDst(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	cases := []struct {
		shape kernelShape
		c     []byte
		alias []int
	}{
		{shapeMulAdd, []byte{0}, []int{0}},
		{shapeMulAdd, []byte{1}, []int{0}},
		{shapeMulAdd, []byte{2}, []int{0}},
		{shapeMulAdd, []byte{0xA7}, []int{0}},
		{shapeMulAdd, []byte{0xFF}, []int{0}},
		{shapeMulAdd2, []byte{2, 3}, []int{0, 0}},
		{shapeMulAdd2, []byte{0xA7, 0x1D}, []int{-1, 0}},
		{shapeMulAdd2, []byte{0xA7, 0}, []int{0, -1}},
		{shapeMulAdd4, []byte{2, 3, 0x10, 0x80}, []int{0, 0, 0, 0}},
		{shapeMulAdd4, []byte{2, 3, 0x10, 0x80}, []int{-1, 0, -1, 0}},
		{shapeMulAdd4, []byte{2, 0, 0x10, 0x80}, []int{0, -1, -1, 0}}, // three live, two aliased
		{shapeMulAdd4, []byte{0, 0, 0x10, 0x80}, []int{-1, -1, 0, 0}},
		{shapeMulAdd4x2, []byte{2, 3, 4, 5, 6, 7, 8, 9}, []int{0, -1, 1, -1}},
		{shapeMulAdd4x2, []byte{2, 3, 4, 5, 6, 7, 8, 9}, []int{-1, -1, -1, 0}},
		{shapeMulAdd4x2, []byte{2, 0, 4, 5, 6, 7, 0, 9}, []int{1, -1, -1, 0}}, // zeros and aliases together
		{shapeXor, ones, []int{0}},
		{shapeXor4, ones, []int{0, 0, 0, 0}},
		{shapeXor4, ones, []int{-1, 0, -1, -1}},
	}
	for _, n := range []int{0, 1, 7, 8, 9, 31, 32, 33, 64, 129, 257, 4097} {
		for _, tc := range cases {
			tc.shape.check(t, rng, n, 0, tc.c, tc.alias)
		}
	}
}

// TestLongSourcePanicsBeforeWriting: the single-source entry points take their
// length from src, and a src longer than dst must fail before any byte moves.
func TestLongSourcePanicsBeforeWriting(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, fn := range map[string]func(dst, src []byte){
		"MulAddSlice": func(dst, src []byte) { MulAddSlice(dst, src, 0xA7) },
		"MulSlice":    func(dst, src []byte) { MulSlice(dst, src, 0xA7) },
		"XorSlice":    XorSlice,
		"AddSlice":    AddSlice,
	} {
		for _, n := range []int{5, 64, 200} {
			dst := randomBytes(rng, n)
			orig := append([]byte(nil), dst...)
			src := randomBytes(rng, n+40)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s len(dst)=%d len(src)=%d did not panic", name, n, n+40)
					}
				}()
				fn(dst, src)
			}()
			if string(dst) != string(orig) {
				t.Fatalf("%s wrote to dst before panicking", name)
			}
		}
	}
}

// TestMulSliceMatchesReference covers the no-accumulate kernel and its
// in-place form over every length, with dst longer than src left untouched
// past len(src).
func TestMulSliceMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range kernelLengths() {
		for _, c := range []byte{0, 1, 2, 0x1D, 0xA7, 0xFF} {
			src := offsetRow(rng, n, rng.Intn(32))
			dst := offsetRow(rng, n+3, rng.Intn(32))
			tail := append([]byte(nil), dst[n:]...)
			MulSlice(dst, src, c)
			scaled := append(offsetRow(rng, 0, rng.Intn(32)), src...)
			ScaleSlice(scaled, c)
			for i := range src {
				want := mulSlow(src[i], c)
				if dst[i] != want {
					t.Fatalf("MulSlice len %d c %#x at %d: got %#x want %#x", n, c, i, dst[i], want)
				}
				if scaled[i] != want {
					t.Fatalf("ScaleSlice len %d c %#x at %d: got %#x want %#x", n, c, i, scaled[i], want)
				}
			}
			// Every rung's no-accumulate kernel, out of place and in place.
			for _, r := range rungs() {
				out := offsetRow(rng, n, rng.Intn(32))
				inPlace := offsetCopy(src, rng.Intn(32))
				done := mulVec(r, out, src, c)
				if mulVec(r, inPlace, inPlace, c) != done || done > n {
					t.Fatalf("mulVec on %s len %d: handled %d bytes", r, n, done)
				}
				for i := 0; i < done; i++ {
					if want := mulSlow(src[i], c); out[i] != want || inPlace[i] != want {
						t.Fatalf("mulVec on %s len %d c %#x at %d: got %#x / %#x in place, want %#x",
							r, n, c, i, out[i], inPlace[i], want)
					}
				}
			}
			if string(dst[n:]) != string(tail) {
				t.Fatalf("MulSlice len %d wrote past len(src)", n)
			}
		}
	}
}

func TestAddSliceOddTails(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for n := 0; n <= 257; n++ {
		a := randomBytes(rng, n)
		b := randomBytes(rng, n)
		got := append([]byte(nil), a...)
		AddSlice(got, b)
		for i := range got {
			if got[i] != a[i]^b[i] {
				t.Fatalf("AddSlice len %d mismatch at %d", n, i)
			}
		}
		// Self-add must zero the row.
		self := append([]byte(nil), a...)
		AddSlice(self, self)
		for i := range self {
			if self[i] != 0 {
				t.Fatalf("AddSlice self len %d not zero at %d", n, i)
			}
		}
	}
}

func TestDotProductFusedTails(t *testing.T) {
	// Row counts around the 4/2/1 grouping boundaries, including zero
	// coefficients that must be skipped.
	rng := rand.New(rand.NewSource(15))
	const k = 131
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17} {
		rows := make([][]byte, n)
		for i := range rows {
			rows[i] = randomBytes(rng, k)
		}
		coeffs := randomBytes(rng, n)
		if n > 2 {
			coeffs[1] = 0 // force a zero inside a fused group
		}
		out := make([]byte, k)
		DotProduct(out, coeffs, rows)
		for j := 0; j < k; j++ {
			var want byte
			for i := 0; i < n; i++ {
				want ^= mulSlow(coeffs[i], rows[i][j])
			}
			if out[j] != want {
				t.Fatalf("DotProduct n=%d col %d: got %#x want %#x", n, j, out[j], want)
			}
		}
	}
}

// TestKernelsDoNotAllocate: the entry points run per record on the hot path;
// none may touch the heap, on the SIMD rung or the portable one, in the SIMD
// steps or the tail.
func TestKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := []byte{0xA7, 0x1D, 0x53, 0xCA, 0x29, 0x77, 0xFE, 0x02}
	for _, n := range []int{17, 4099} {
		rows := make([][]byte, 6)
		for i := range rows {
			rows[i] = randomBytes(rng, n)
		}
		for _, k := range allShapes {
			d, s := rows[:k.nd], rows[2:2+k.ns]
			if a := testing.AllocsPerRun(20, func() { k.entry(d, s, c) }); a != 0 {
				t.Errorf("%s len %d: %v allocs per run", k.name, n, a)
			}
			for _, r := range rungs() {
				if a := testing.AllocsPerRun(20, func() { k.vec(r, d, s, c) }); a != 0 {
					t.Errorf("%s on %s len %d: %v allocs per run", k.name, r, n, a)
				}
			}
		}
		for name, fn := range map[string]func(){
			"MulSlice":   func() { MulSlice(rows[0], rows[1], 0xA7) },
			"ScaleSlice": func() { ScaleSlice(rows[0], 0xA7) },
			"AddSlice":   func() { AddSlice(rows[0], rows[1]) },
			"DotProduct": func() { DotProduct(rows[0], c[:5], rows[1:]) },
		} {
			if a := testing.AllocsPerRun(20, fn); a != 0 {
				t.Errorf("%s len %d: %v allocs per run", name, n, a)
			}
		}
	}
}

// FuzzMulAddKernels drives every multiply-accumulate entry point with
// fuzzer-chosen lengths, coefficients and misalignments, comparing the
// dispatched rung, the portable kernel and the scalar reference.
func FuzzMulAddKernels(f *testing.F) {
	f.Add([]byte{}, uint64(0), uint32(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint64(0x0102030405060708), uint32(1))
	f.Add(make([]byte, 6*97), uint64(0xA71D53CA2977FE02), uint32(0x3FFFFFFF))
	f.Add(make([]byte, 6*4097), uint64(0xFF00010080A70000), uint32(0x12345678))
	f.Fuzz(func(t *testing.T, data []byte, coeffs uint64, offs uint32) {
		n := len(data) / 6
		c := make([]byte, 8)
		for i := range c {
			c[i] = byte(coeffs >> (8 * i))
		}
		// Six rows carved from data, each copied to its own offset 0–31.
		off := func(i int) int { return int(offs>>(5*i)) & 31 }
		rows := make([][]byte, 6)
		for i := range rows {
			rows[i] = offsetCopy(data[i*n:(i+1)*n], off(i))
		}
		for _, k := range allShapes {
			d := make([][]byte, k.nd)
			for i := range d {
				d[i] = offsetCopy(rows[i], off(i))
			}
			k.checkRows(t, d, rows[2:2+k.ns], c)
		}
		dst := append([]byte(nil), rows[0]...)
		MulSlice(dst, rows[2], c[0])
		for i, v := range rows[2] {
			if want := mulSlow(v, c[0]); dst[i] != want {
				t.Fatalf("MulSlice len %d c %#x at %d: got %#x want %#x", n, c[0], i, dst[i], want)
			}
		}
	})
}

// BenchmarkMulAddLadder measures the rungs of the host kernel ladder at the
// paper's reference block size (k=4096) and at short rows: the scalar
// reference, the portable wide-word kernel, each SIMD rung this CPU has —
// called directly, so "avx2" means AVX2 on a host that dispatches to GFNI —
// and, through the entry points (the dispatched rung), the no-accumulate
// kernel and the fused shapes that share work across sources or destinations.
// Throughput is source bytes per destination processed per second, so the MB/s
// column is directly comparable across rungs: a fused rung's ratio to the
// dispatched single-source rung is its gain over composing single-source
// passes.
func BenchmarkMulAddLadder(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	for _, k := range []int{16, 64, 256, 1024, 4096} {
		s1 := randomBytes(rng, k)
		s2 := randomBytes(rng, k)
		s3 := randomBytes(rng, k)
		s4 := randomBytes(rng, k)
		dst := randomBytes(rng, k)
		dst2 := randomBytes(rng, k)
		b.Run(fmt.Sprintf("table-scalar/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(k))
			for i := 0; i < b.N; i++ {
				mulAddTableScalar(dst, s1, 0xA7)
			}
		})
		b.Run(fmt.Sprintf("portable-wide/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(k))
			for i := 0; i < b.N; i++ {
				mulAddPortable(dst, s1, 0xA7)
			}
		})
		for _, r := range []rung{rungAVX2, rungGFNI} {
			b.Run(fmt.Sprintf("%s/k=%d", r, k), func(b *testing.B) {
				if r > active {
					b.Skipf("no %s rung on this host or build", r)
				}
				b.SetBytes(int64(k))
				for i := 0; i < b.N; i++ {
					if done := mulAddVec(r, dst, s1, 0xA7); done < k {
						mulAddPortable(dst[done:], s1[done:], 0xA7)
					}
				}
			})
		}
		b.Run(fmt.Sprintf("scale/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(k))
			for i := 0; i < b.N; i++ {
				ScaleSlice(dst, 0xA7)
			}
		})
		b.Run(fmt.Sprintf("fused2/k=%d", k), func(b *testing.B) {
			// Two sources into one destination.
			b.SetBytes(int64(2 * k))
			for i := 0; i < b.N; i++ {
				MulAddSlice2(dst, s1, s2, 0xA7, 0x1D)
			}
		})
		b.Run(fmt.Sprintf("fused4/k=%d", k), func(b *testing.B) {
			// Four sources into one destination (the back-substitution and
			// single-block encode shape).
			b.SetBytes(int64(4 * k))
			for i := 0; i < b.N; i++ {
				MulAddSlice4(dst, s1, s2, s3, s4, 0xA7, 0x1D, 0x53, 0xCA)
			}
		})
		b.Run(fmt.Sprintf("fused4x2/k=%d", k), func(b *testing.B) {
			// Eight source·destination lanes per call.
			b.SetBytes(int64(8 * k))
			for i := 0; i < b.N; i++ {
				MulAddSlice4x2(dst, dst2, s1, s2, s3, s4,
					[4]byte{0xA7, 0x1D, 0x53, 0xCA}, [4]byte{0x29, 0x77, 0xFE, 0x02})
			}
		})
	}
}
