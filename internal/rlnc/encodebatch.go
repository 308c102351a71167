package rlnc

import (
	"extremenc/internal/gf256"
	"extremenc/internal/obs"
)

// stageEncodeBatch times one batch-encode call (not one gf256 kernel call:
// the kernels run thousands of times per batch and are benched, not
// spanned). Free when no obs sink is installed.
var stageEncodeBatch = obs.StageOf("rlnc.encode_batch")

// Tiled batch encoding: the host-codec analogue of the paper's full-block
// streaming-server scheme (Sec. 5.3), made cache-aware. Producing B coded
// payloads in one pass over the source blocks lets every source tile loaded
// from memory be reused B times, and the fused gf256 kernel splits each
// source byte once for a pair of destinations and loads and stores each
// destination once per source pair. Together these replace the seed path's
// one-block-at-a-time Σ cᵢ·bᵢ loop, which streamed the whole segment from
// memory once per coded block.
//
// Both constants were re-measured on the AVX2 kernels (n=128 at k=4096 and
// k=16384, n=32 at k=256, batches of 4 and 32) and kept: tiles of 1–2 KiB lose
// 5–10 % to per-call set-up, 8 KiB ties, and groups of 8–32 destinations are
// within 2 % of each other until k=16384, where 4 and 8 lose 10–25 %.

const (
	// encodeTile is the column-tile width in bytes. A fused inner step
	// touches four source tiles plus two destination tiles (6 × encodeTile =
	// 24 KiB), which fits a 32 KiB L1d.
	encodeTile = 4096

	// encodeBatchGroup caps how many destinations a single tiled pass
	// accumulates, bounding the hot destination working set to
	// encodeBatchGroup × encodeTile bytes (64 KiB, L2-resident).
	encodeBatchGroup = 16
)

// EncodeBatchInto computes dsts[b] = Σ_i coeffs[b][i]·seg.Block(i) for every
// b in one tiled pass over the source blocks. Each dsts[b] must be at least
// BlockSize long and each coeffs[b] exactly BlockCount long. It is the
// batch-shaped primitive behind the encoder and the parallel workers; the
// decoder's reconstruction stage runs the same kernel over received payloads.
func EncodeBatchInto(dsts [][]byte, seg *Segment, coeffs [][]byte) error {
	return serialEncoder.EncodeBatchInto(dsts, seg, coeffs)
}

// serialEncoder encodes on its caller: a single worker dispatches nothing.
var serialEncoder = &ParallelEncoder{workers: 1}

// encodeBatchRange sets the [lo, hi) column range of every destination to
// Σ_j coeffs[b][j]·srcs[j].
func encodeBatchRange(dsts, srcs, coeffs [][]byte, lo, hi int) {
	for _, d := range dsts {
		clear(d[lo:hi])
	}
	accumulateBatch(dsts, srcs, coeffs, lo, hi)
}

// accumulateBatch adds Σ_j coeffs[b][j]·srcs[j] into the [lo, hi) column range
// of every destination, in destination groups that keep the hot working set
// cache-sized.
func accumulateBatch(dsts, srcs, coeffs [][]byte, lo, hi int) {
	for g := 0; g < len(dsts); g += encodeBatchGroup {
		ge := min(g+encodeBatchGroup, len(dsts))
		batchMulAdd(dsts[g:ge], srcs, coeffs[g:ge], lo, hi)
	}
}

// batchMulAdd accumulates dsts[b] ^= Σ_j coeffs[b][j]·srcs[j] over the
// column range [lo, hi), walking cache-sized column tiles. Within a tile the
// source rows are consumed four at a time: a quadruple of source tiles stays
// resident in L1 while it is applied to every destination pair through the
// fused kernel. Zero coefficients (sparse vectors) are skipped. Destinations
// must not alias sources.
func batchMulAdd(dsts, srcs, coeffs [][]byte, lo, hi int) {
	n := len(srcs)
	for tlo := lo; tlo < hi; tlo += encodeTile {
		thi := min(tlo+encodeTile, hi)
		j := 0
		for ; j+4 <= n; j += 4 {
			s1 := srcs[j][tlo:thi]
			s2 := srcs[j+1][tlo:thi]
			s3 := srcs[j+2][tlo:thi]
			s4 := srcs[j+3][tlo:thi]
			// Destinations in pairs: the dual-destination kernel loads and
			// splits each source byte once for both outputs.
			b := 0
			for ; b+2 <= len(coeffs); b += 2 {
				csA, csB := coeffs[b], coeffs[b+1]
				ca := [4]byte{csA[j], csA[j+1], csA[j+2], csA[j+3]}
				cb := [4]byte{csB[j], csB[j+1], csB[j+2], csB[j+3]}
				if ca[0]|ca[1]|ca[2]|ca[3] == 0 && cb[0]|cb[1]|cb[2]|cb[3] == 0 {
					continue
				}
				gf256.MulAddSlice4x2(dsts[b][tlo:thi], dsts[b+1][tlo:thi], s1, s2, s3, s4, ca, cb)
			}
			for ; b < len(coeffs); b++ {
				cs := coeffs[b]
				c1, c2, c3, c4 := cs[j], cs[j+1], cs[j+2], cs[j+3]
				if c1|c2|c3|c4 == 0 {
					continue
				}
				gf256.MulAddSlice4(dsts[b][tlo:thi], s1, s2, s3, s4, c1, c2, c3, c4)
			}
		}
		if j+2 <= n {
			s1 := srcs[j][tlo:thi]
			s2 := srcs[j+1][tlo:thi]
			for b, cs := range coeffs {
				if c1, c2 := cs[j], cs[j+1]; c1|c2 != 0 {
					gf256.MulAddSlice2(dsts[b][tlo:thi], s1, s2, c1, c2)
				}
			}
			j += 2
		}
		if j < n {
			src := srcs[j][tlo:thi]
			for b, cs := range coeffs {
				if c := cs[j]; c != 0 {
					gf256.MulAddSlice(dsts[b][tlo:thi], src, c)
				}
			}
		}
	}
}
