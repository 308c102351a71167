package rlnc

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"extremenc/internal/gf256"
)

// Where a batch multiply runs (batchMul): the rule, byte identity on both
// sides of dispatchFloor, the recoder's trimmed reduce, and the benchmark the
// floor was sized from.

// TestEncodeBatchAcrossDispatchFloor: a FullBlock batch just below the floor
// runs on the caller and one at the floor is split across the pool, through
// one worker and two, and every row is the single-block reference's bytes.
func TestEncodeBatchAcrossDispatchFloor(t *testing.T) {
	p := Params{BlockCount: 64, BlockSize: 1024}
	seg := randomSegment(t, 1, p, 907)
	rng := rand.New(rand.NewSource(908))
	perRow := p.BlockCount * p.BlockSize
	atFloor := (dispatchFloor + perRow - 1) / perRow
	want := make([]byte, p.BlockSize)
	for _, workers := range []int{1, 2} {
		pe, err := NewParallelEncoder(workers, FullBlock)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{atFloor - 1, atFloor} {
			if got, want := pe.mul.pooled(batch, p.BlockCount, p.BlockSize), workers > 1 && batch == atFloor; got != want {
				t.Fatalf("%d workers, batch %d: pooled = %v, want %v", workers, batch, got, want)
			}
			coeffs := make([][]byte, batch)
			dsts := make([][]byte, batch)
			for b := range coeffs {
				coeffs[b] = make([]byte, p.BlockCount)
				rng.Read(coeffs[b])
				dsts[b] = bytes.Repeat([]byte{0xA5}, p.BlockSize)
			}
			if err := pe.EncodeBatchInto(dsts, seg, coeffs); err != nil {
				t.Fatal(err)
			}
			for b := range coeffs {
				encodeSingleRef(want, seg, coeffs[b])
				if !bytes.Equal(dsts[b], want) {
					t.Fatalf("%d workers, batch %d: row %d diverges from single-block encode", workers, batch, b)
				}
			}
		}
	}
}

// TestRecoderEmitIntoAcrossDispatchFloor: a recode batch just below the floor
// and one at it — run on the caller, then split across two pool workers — are
// byte for byte the emissions Emit makes one at a time, over dense and binary
// input.
func TestRecoderEmitIntoAcrossDispatchFloor(t *testing.T) {
	p := Params{BlockCount: 64, BlockSize: 1024}
	seg := randomSegment(t, 2, p, 909)
	width := p.BlockCount + p.BlockSize
	perEmission := p.BlockCount * width
	atFloor := (dispatchFloor + perEmission - 1) / perEmission
	for _, binary := range []bool{false, true} {
		one, batched := recoderAt(t, seg, p.BlockCount, binary), recoderAt(t, seg, p.BlockCount, binary)
		batched.mul.workers = 2 // split even where the shared pool has one worker
		for _, batch := range []int{atFloor - 1, atFloor} {
			if got := batched.mul.pooled(batch, batched.Rank(), width); got != (batch == atFloor) {
				t.Fatalf("batch %d: pooled = %v", batch, got)
			}
			rows := make([][]byte, batch)
			for i := range rows {
				rows[i] = bytes.Repeat([]byte{0xA5}, width)
			}
			if err := batched.EmitInto(rows); err != nil {
				t.Fatal(err)
			}
			for i, row := range rows {
				want, err := one.Emit()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(row[:p.BlockCount], want.Coeffs) || !bytes.Equal(row[p.BlockCount:], want.Payload) {
					t.Fatalf("binary=%v: emission %d of a batch of %d differs from Emit", binary, i, batch)
				}
			}
		}
	}
}

// reduceFullWidth is Recoder.reduce over the whole n-byte row: every
// elimination and the final scale start at column 0.
func reduceFullWidth(r *Recoder, coeffs []byte) int {
	row := r.scratch
	copy(row, coeffs)
	pivot := -1
	for c := range row {
		f := row[c]
		if f == 0 {
			continue
		}
		if pr := probeAt(r, c); pr != nil {
			gf256.MulAddSlice(row, pr, f)
			continue
		}
		if pivot < 0 {
			pivot = c
		}
	}
	if pivot >= 0 && row[pivot] != 1 {
		gf256.ScaleSlice(row, gf256.Inv(row[pivot]))
	}
	return pivot
}

// probeAt is r's probe vector with pivot c, or nil when it has none.
func probeAt(r *Recoder, c int) []byte {
	if j := int(r.pivots[c]); j != 0 {
		n := len(r.pivots)
		return r.probe[(j-1)*n : j*n]
	}
	return nil
}

// TestRecoderReduceMatchesFullWidth: starting each elimination at the probe
// row's pivot step changes nothing — over dense, binary and dependent
// arrivals, at n below, between and at whole SIMD steps, Add leaves the same
// reduced vector, the same probe rows under the same pivots, and the same rank
// as the full-width reduce.
func TestRecoderReduceMatchesFullWidth(t *testing.T) {
	for _, n := range []int{16, 70, 128} {
		p := Params{BlockCount: n, BlockSize: 8}
		for _, kind := range []string{"dense", "binary", "dependent"} {
			rng := rand.New(rand.NewSource(int64(910 + n)))
			fast, err := NewRecoder(p)
			if err != nil {
				t.Fatal(err)
			}
			ref, _ := NewRecoder(p)
			var held [][]byte
			arrival := func(i int) []byte {
				c := make([]byte, n)
				switch {
				case kind == "binary":
					for j := range c {
						c[j] = byte(rng.Intn(2))
					}
				case kind == "dependent" && i%2 == 1 && len(held) > 1:
					// A combination of two vectors already held.
					gf256.MulAddSlice(c, held[rng.Intn(len(held))], byte(1+rng.Intn(255)))
					gf256.MulAddSlice(c, held[rng.Intn(len(held))], byte(1+rng.Intn(255)))
				default:
					rng.Read(c)
					c[rng.Intn(n)] = 0
				}
				return c
			}
			for i := 0; i < 3*n; i++ {
				c := arrival(i)
				if err := fast.Add(&CodedBlock{Coeffs: c, Payload: make([]byte, p.BlockSize)}); err != nil {
					t.Fatal(err)
				}
				if pivot := reduceFullWidth(ref, c); pivot >= 0 {
					ref.probe = append(ref.probe, ref.scratch...)
					ref.pivots[pivot] = uint16(len(ref.probe) / n)
					ref.payloads = append(ref.payloads, nil)
					held = append(held, c)
				}
				if !bytes.Equal(fast.scratch, ref.scratch) || fast.Rank() != ref.Rank() {
					t.Fatalf("n=%d %s arrival %d: reduced %x rank %d, full width %x rank %d", n, kind, i, fast.scratch, fast.Rank(), ref.scratch, ref.Rank())
				}
				for col := range n {
					if !bytes.Equal(probeAt(fast, col), probeAt(ref, col)) {
						t.Fatalf("n=%d %s arrival %d: probe row %d differs", n, kind, i, col)
					}
				}
			}
			if ref.Rank() != n {
				t.Fatalf("n=%d %s: rank %d after %d arrivals", n, kind, ref.Rank(), 3*n)
			}
		}
	}
}

// BenchmarkEncodeBatchDispatch: one batch multiply on its caller (serial)
// and split by rows across SharedPool (pooled), at the shapes dispatchFloor
// was sized from — n=32, k=256 pump rounds of 8 records and a 34-record grant,
// and n=128, k=4096 batches of 1, 4 and 32.
func BenchmarkEncodeBatchDispatch(b *testing.B) {
	for _, tc := range []struct {
		p     Params
		batch int
	}{
		{Params{BlockCount: 32, BlockSize: 256}, 8},
		{Params{BlockCount: 32, BlockSize: 256}, 34},
		{Params{BlockCount: 128, BlockSize: 4096}, 1},
		{Params{BlockCount: 128, BlockSize: 4096}, 4},
		{Params{BlockCount: 128, BlockSize: 4096}, 32},
	} {
		p := tc.p
		seg := randomSegment(b, 1, p, 41)
		rng := rand.New(rand.NewSource(42))
		coeffs := make([][]byte, tc.batch)
		dsts := make([][]byte, tc.batch)
		for i := range coeffs {
			coeffs[i] = make([]byte, p.BlockCount)
			DrawCoeffs(coeffs[i], rng)
			dsts[i] = make([]byte, p.BlockSize)
		}
		srcs := seg.Blocks()
		m := &batchMul{workers: SharedPool().Workers()}
		name := fmt.Sprintf("n=%d,k=%d,b=%d", p.BlockCount, p.BlockSize, tc.batch)
		b.Run(name+"/serial", func(b *testing.B) {
			b.SetBytes(int64(tc.batch * p.BlockSize))
			for i := 0; i < b.N; i++ {
				encodeBatchRange(dsts, srcs, coeffs, 0, p.BlockSize)
			}
		})
		b.Run(name+"/pooled", func(b *testing.B) {
			b.SetBytes(int64(tc.batch * p.BlockSize))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.dispatch(min(m.workers, tc.batch), dsts, srcs, coeffs, p.BlockSize)
			}
		})
	}
}
