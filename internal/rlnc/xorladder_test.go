package rlnc

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkXorLadder measures the systematic + GF(2) fast path at the paper's
// streaming configuration (n=128, k=4096), in the ladder convention of
// BenchmarkEncode/BenchmarkDecodeLadder: throughput is source bytes through
// the kernel, so rungs are directly comparable with the dense GF(2^8) rungs
// they bypass. xor-repair-encode was accepted at ≥ 3× the fused4x2 rung of
// gf256's BenchmarkMulAddLadder at k=4096, measured 3.2× against the
// table-gather kernels; the AVX2 rung closed most of that gap, so the bar is
// restated as "XOR repair stays ahead of the widest GF(2^8) rung":
// cmd/benchjson derives xor_repair_encode_over_fused4x2_k4096_x and
// bench-check holds it within tolerance of the committed BENCH_host.json.
//
//	systematic-emit    — phase-1 emit: unit vector + aliased payload, no
//	                     arithmetic, no copy; the per-block fixed cost floor.
//	xor-repair-encode  — one GF(2) repair payload: XOR-fold of the selected
//	                     source blocks (half the segment, the expected mask
//	                     density) through XorSlice4/XorSlice.
//	xor-decode         — XOR-only progressive elimination to full rank from a
//	                     lossy systematic stream: the decoder fast path.
//	blended/loss=…     — whole-session recovery rate at simulated loss: lossy
//	                     systematic sweep + GF(2) repair + dense tail, decoded
//	                     to a full segment; bytes are recovered source bytes.
func BenchmarkXorLadder(b *testing.B) {
	p := Params{BlockCount: 128, BlockSize: 4096}
	rng := rand.New(rand.NewSource(61))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(1, p, data)
	if err != nil {
		b.Fatal(err)
	}
	n, k := p.BlockCount, p.BlockSize

	b.Run(fmt.Sprintf("systematic-emit/k=%d", k), func(b *testing.B) {
		se := NewSystematicEncoder(seg, rand.New(rand.NewSource(62)))
		b.SetBytes(int64(k))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if se.SystematicRemaining() == 0 {
				se.Reset()
			}
			_ = se.Block()
		}
	})

	b.Run(fmt.Sprintf("xor-repair-encode/k=%d", k), func(b *testing.B) {
		// Fixed half-dense mask: the expected density of a random GF(2)
		// repair vector, deterministic so every iteration folds the same
		// n/2 source blocks.
		mask := make([]byte, n)
		for i := 0; i < n; i += 2 {
			mask[i] = 1
		}
		payload := make([]byte, k)
		rows := seg.Blocks()
		b.SetBytes(int64(n / 2 * k))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			xorRowsInto(payload, rows, mask)
		}
	})

	// A lossy all-binary stream that spans the segment: systematic sweep with
	// every 16th block dropped, then GF(2) repairs until full rank.
	binStream := buildXorStream(b, seg, 16)
	b.Run(fmt.Sprintf("xor-decode/k=%d", k), func(b *testing.B) {
		b.SetBytes(int64(p.SegmentSize()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dec, err := NewDecoder(p)
			if err != nil {
				b.Fatal(err)
			}
			for _, blk := range binStream {
				if _, err := dec.AddBlock(blk); err != nil {
					b.Fatal(err)
				}
				if dec.Ready() {
					break
				}
			}
			if !dec.Ready() || !dec.xorOnly {
				b.Fatalf("xor-decode rung left fast path: ready=%v xorOnly=%v", dec.Ready(), dec.xorOnly)
			}
		}
	})

	// Blended rate: full systematic+XOR session (encode already done once —
	// the stream is fixed) decoded under simulated random loss. The rate is
	// recovered source bytes per second at that loss.
	for _, loss := range []struct {
		name string
		prob float64
	}{{"0.1pct", 0.001}, {"1pct", 0.01}, {"5pct", 0.05}} {
		stream := buildBlendedStream(b, seg, loss.prob)
		b.Run("blended/loss="+loss.name, func(b *testing.B) {
			b.SetBytes(int64(p.SegmentSize()))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dec, err := NewDecoder(p)
				if err != nil {
					b.Fatal(err)
				}
				for _, blk := range stream {
					if _, err := dec.AddBlock(blk); err != nil {
						b.Fatal(err)
					}
					if dec.Ready() {
						break
					}
				}
				if !dec.Ready() {
					b.Fatal("blended stream did not reach full rank")
				}
			}
		})
	}
}

// buildXorStream returns an all-binary arrival stream spanning seg: the
// systematic sweep with every dropEvery-th block lost, followed by GF(2)
// repair blocks. The stream is verified to decode on the XOR-only fast path.
func buildXorStream(b *testing.B, seg *Segment, dropEvery int) []*CodedBlock {
	b.Helper()
	p := seg.Params()
	se := NewSystematicEncoder(seg, rand.New(rand.NewSource(63)), WithXorRepair(4*p.BlockCount), WithDenseTail(0))
	probe, err := NewDecoder(p)
	if err != nil {
		b.Fatal(err)
	}
	var stream []*CodedBlock
	for i := 0; !probe.Ready(); i++ {
		if i > 16*p.BlockCount {
			b.Fatal("xor stream failed to span the segment")
		}
		blk := se.Block().Clone()
		if i < p.BlockCount && i%dropEvery == dropEvery-1 {
			continue // simulated loss in the systematic sweep
		}
		if _, err := probe.AddBlock(blk); err != nil {
			b.Fatal(err)
		}
		stream = append(stream, blk)
	}
	if !probe.xorOnly {
		b.Fatal("xor stream is not all-binary")
	}
	return stream
}

// buildBlendedStream returns a systematic+XOR+dense session stream under
// random loss with probability prob, verified to decode to seg.
func buildBlendedStream(b *testing.B, seg *Segment, prob float64) []*CodedBlock {
	b.Helper()
	p := seg.Params()
	rng := rand.New(rand.NewSource(int64(64 + 1000*prob)))
	se := NewSystematicEncoder(seg, rand.New(rand.NewSource(65)))
	probe, err := NewDecoder(p)
	if err != nil {
		b.Fatal(err)
	}
	var stream []*CodedBlock
	for i := 0; !probe.Ready(); i++ {
		if i > 64*p.BlockCount {
			b.Fatal("blended stream failed to span the segment")
		}
		blk := se.Block().Clone()
		if rng.Float64() < prob {
			continue // lost in flight
		}
		if _, err := probe.AddBlock(blk); err != nil {
			b.Fatal(err)
		}
		stream = append(stream, blk)
	}
	got, err := probe.Segment()
	if err != nil {
		b.Fatal(err)
	}
	if !got.Equal(seg) {
		b.Fatal("blended stream decodes corrupt segment")
	}
	return stream
}
