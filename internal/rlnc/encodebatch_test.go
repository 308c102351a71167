package rlnc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"extremenc/internal/gf256"
)

// encodeSingleRef reproduces the seed single-block encode shape — one
// MulAddSlice sweep over the whole segment per coded block — as the
// reference both for correctness and for the ladder benchmark baseline.
func encodeSingleRef(dst []byte, seg *Segment, coeffs []byte) {
	k := seg.Params().BlockSize
	clear(dst[:k])
	for i, c := range coeffs {
		if c != 0 {
			gf256.MulAddSlice(dst[:k], seg.Block(i), c)
		}
	}
}

func TestEncodeBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	shapes := []Params{
		{BlockCount: 1, BlockSize: 1},
		{BlockCount: 2, BlockSize: 7},
		{BlockCount: 3, BlockSize: 257},
		{BlockCount: 4, BlockSize: 64},
		{BlockCount: 5, BlockSize: 33},
		{BlockCount: 7, BlockSize: 4096},
		{BlockCount: 13, BlockSize: 5000}, // crosses a tile boundary
		{BlockCount: 16, BlockSize: 96},
	}
	for _, p := range shapes {
		data := make([]byte, p.SegmentSize())
		rng.Read(data)
		seg, err := SegmentFromData(1, p, data)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 2, 3, encodeBatchGroup, encodeBatchGroup + 1, 40} {
			coeffs := make([][]byte, batch)
			dsts := make([][]byte, batch)
			for b := range coeffs {
				coeffs[b] = make([]byte, p.BlockCount)
				rng.Read(coeffs[b])
				if b%3 == 0 && p.BlockCount > 1 {
					coeffs[b][rng.Intn(p.BlockCount)] = 0 // sparse rows too
				}
				dsts[b] = make([]byte, p.BlockSize)
			}
			if err := EncodeBatchInto(dsts, seg, coeffs); err != nil {
				t.Fatal(err)
			}
			want := make([]byte, p.BlockSize)
			for b := range coeffs {
				encodeSingleRef(want, seg, coeffs[b])
				if !bytes.Equal(dsts[b], want) {
					t.Fatalf("%v batch=%d: row %d diverges from single-block encode", p, batch, b)
				}
			}
		}
	}
}

func TestEncodeBatchValidation(t *testing.T) {
	p := Params{BlockCount: 4, BlockSize: 16}
	seg, err := NewSegment(1, p)
	if err != nil {
		t.Fatal(err)
	}
	pe, err := NewParallelEncoder(3, FullBlock)
	if err != nil {
		t.Fatal(err)
	}
	good := [][]byte{make([]byte, 4)}
	dst := [][]byte{make([]byte, 16)}
	for name, encode := range map[string]func(dsts [][]byte, seg *Segment, coeffs [][]byte) error{
		"serial": EncodeBatchInto, "pool": pe.EncodeBatchInto,
	} {
		if err := encode(dst, seg, nil); !errors.Is(err, ErrBatchShape) {
			t.Fatalf("%s: mismatched batch sizes: %v", name, err)
		}
		if err := encode(dst, seg, [][]byte{make([]byte, 3)}); !errors.Is(err, ErrBatchShape) {
			t.Fatalf("%s: short coefficient vector: %v", name, err)
		}
		if err := encode([][]byte{make([]byte, 15)}, seg, good); !errors.Is(err, ErrBatchShape) {
			t.Fatalf("%s: short destination: %v", name, err)
		}
		if err := encode(dst, seg, good); err != nil {
			t.Fatalf("%s: valid batch rejected: %v", name, err)
		}
	}
}

// TestEncodeIntoMatchesReference pins the routed-through-batch EncodeInto
// against the explicit seed-shaped loop.
func TestEncodeIntoMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, p := range []Params{{BlockCount: 5, BlockSize: 41}, {BlockCount: 128, BlockSize: 512}} {
		data := make([]byte, p.SegmentSize())
		rng.Read(data)
		seg, err := SegmentFromData(2, p, data)
		if err != nil {
			t.Fatal(err)
		}
		coeffs := make([]byte, p.BlockCount)
		rng.Read(coeffs)
		coeffs[0] = 0
		got := make([]byte, p.BlockSize)
		EncodeInto(got, seg, coeffs)
		want := make([]byte, p.BlockSize)
		encodeSingleRef(want, seg, coeffs)
		if !bytes.Equal(got, want) {
			t.Fatalf("%v: EncodeInto diverges from reference", p)
		}
	}
}

// BenchmarkEncodeBatch measures the tentpole claim at the paper's streaming
// configuration (n=128, k=4096): the tiled batch kernel versus the seed
// single-block path, plus the pool-backed parallel modes.
func BenchmarkEncodeBatch(b *testing.B) {
	p := Params{BlockCount: 128, BlockSize: 4096}
	rng := rand.New(rand.NewSource(33))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(1, p, data)
	if err != nil {
		b.Fatal(err)
	}
	const batch = 32
	coeffs := make([][]byte, batch)
	dsts := make([][]byte, batch)
	for i := range coeffs {
		coeffs[i] = make([]byte, p.BlockCount)
		for j := range coeffs[i] {
			coeffs[i][j] = byte(1 + rng.Intn(255))
		}
		dsts[i] = make([]byte, p.BlockSize)
	}
	bytesPerOp := int64(batch) * int64(p.BlockSize)

	b.Run("single-ref", func(b *testing.B) {
		b.SetBytes(bytesPerOp)
		for i := 0; i < b.N; i++ {
			for j := range dsts {
				encodeSingleRef(dsts[j], seg, coeffs[j])
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.SetBytes(bytesPerOp)
		for i := 0; i < b.N; i++ {
			if err := EncodeBatchInto(dsts, seg, coeffs); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, mode := range []EncodeMode{FullBlock, PartitionedBlock} {
		pe, err := NewParallelEncoder(runtime.GOMAXPROCS(0), mode)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pool-%s", mode), func(b *testing.B) {
			b.SetBytes(bytesPerOp)
			for i := 0; i < b.N; i++ {
				if _, err := pe.Encode(seg, batch, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		// The same dispatch into rows the caller owns: what is left of the
		// rung above once nothing is drawn or allocated per call.
		b.Run(fmt.Sprintf("pool-%s-into", mode), func(b *testing.B) {
			b.SetBytes(bytesPerOp)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := pe.EncodeBatchInto(dsts, seg, coeffs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
