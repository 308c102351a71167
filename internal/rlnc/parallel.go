package rlnc

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
)

// EncodeMode selects how a multi-worker encoder partitions work — the
// comparison of paper Sec. 5.3 / Fig. 10.
type EncodeMode int

const (
	// PartitionedBlock splits every coded block's payload across all
	// workers, so each worker owns a contiguous column stripe (the original
	// IWQoS'07 scheme: on-demand generation). The stripe work for the whole
	// batch runs under a single dispatch: worker w computes its columns of
	// every coded block in one tiled pass.
	PartitionedBlock EncodeMode = iota + 1
	// FullBlock assigns whole coded blocks to workers (the paper's new
	// streaming-server scheme: generate many, buffer, deliver on demand).
	FullBlock
)

func (m EncodeMode) String() string {
	switch m {
	case PartitionedBlock:
		return "partitioned-block"
	case FullBlock:
		return "full-block"
	default:
		return fmt.Sprintf("EncodeMode(%d)", int(m))
	}
}

// ParallelEncoder produces batches of coded blocks with the persistent
// worker pool. Output is deterministic for a given seed regardless of worker
// count or scheduling: the coefficient matrix is drawn up front and workers
// write disjoint regions. It is safe for concurrent use; batches run one at a
// time.
type ParallelEncoder struct {
	workers int
	pool    *Pool

	// The batch in flight and what its dispatch needs, kept on the encoder so
	// that a steady-state batch allocates nothing: task is bound once and wg
	// is the dispatch's group. mu makes a batch exclusive.
	mu           sync.Mutex
	wg           sync.WaitGroup
	task         func(w int, s *Scratch)
	dsts, coeffs [][]byte
	seg          *Segment
}

// NewParallelEncoder returns an encoder with the given worker count and
// partitioning mode. Work executes on the process-wide SharedPool; workers
// only bounds how many concurrent stripes this encoder dispatches.
func NewParallelEncoder(workers int, mode EncodeMode) (*ParallelEncoder, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrWorkerCount, workers)
	}
	pe := &ParallelEncoder{workers: workers, pool: SharedPool()}
	switch mode {
	case FullBlock:
		pe.task = pe.fullBlockTask
	case PartitionedBlock:
		pe.task = pe.partitionedTask
	default:
		return nil, fmt.Errorf("%w: %d", ErrEncodeMode, int(mode))
	}
	return pe, nil
}

// Encode produces count coded blocks from seg using coefficients drawn from
// a rand source seeded with seed.
func (pe *ParallelEncoder) Encode(seg *Segment, count int, seed int64) ([]*CodedBlock, error) {
	if count <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrBlockCountInvalid, count)
	}
	p := seg.Params()
	rng := rand.New(rand.NewSource(seed))
	enc := NewEncoder(seg, rng)
	blocks := make([]*CodedBlock, count)
	dsts := make([][]byte, count)
	coeffs := make([][]byte, count)
	for i := range blocks {
		blocks[i] = &CodedBlock{
			SegmentID: seg.ID(),
			Coeffs:    enc.NextCoeffs(),
			Payload:   make([]byte, p.BlockSize),
		}
		dsts[i], coeffs[i] = blocks[i].Payload, blocks[i].Coeffs
	}
	if err := pe.EncodeBatchInto(dsts, seg, coeffs); err != nil {
		return nil, err
	}
	return blocks, nil
}

// EncodeBatchInto computes dsts[b] = Σ_i coeffs[b][i]·seg.Block(i) through the
// encoder's workers and partitioning mode. The caller supplies (and owns) the
// destinations — a wire frame's payload bytes, say — so the multiply is the
// only thing that touches them. Nothing is allocated; the single-worker case
// runs on the caller.
func (pe *ParallelEncoder) EncodeBatchInto(dsts [][]byte, seg *Segment, coeffs [][]byte) error {
	// One span per batch: the workers call encodeBatchRange directly.
	defer stageEncodeBatch.Start().End()
	p := seg.params
	if len(dsts) != len(coeffs) {
		return fmt.Errorf("%w: %d destinations for %d coefficient vectors", ErrBatchShape, len(dsts), len(coeffs))
	}
	for b := range dsts {
		if len(coeffs[b]) != p.BlockCount {
			return fmt.Errorf("%w: batch row %d has %d coefficients, want %d", ErrBatchShape, b, len(coeffs[b]), p.BlockCount)
		}
		if len(dsts[b]) < p.BlockSize {
			return fmt.Errorf("%w: batch row %d destination %d bytes, want ≥ %d", ErrBatchShape, b, len(dsts[b]), p.BlockSize)
		}
	}
	if pe.workers == 1 {
		encodeBatchRange(dsts, seg.Blocks(), coeffs, 0, p.BlockSize)
		return nil
	}
	pe.mu.Lock()
	pe.dsts, pe.coeffs, pe.seg = dsts, coeffs, seg
	pe.pool.dispatch(&pe.wg, pe.workers, pe.task)
	pe.dsts, pe.coeffs, pe.seg = nil, nil, nil
	pe.mu.Unlock()
	return nil
}

// fullBlockTask is worker w's share of a FullBlock batch: whole coded blocks,
// dealt round-robin, batch-encoded in one tiled pass through the worker's
// scratch row views.
func (pe *ParallelEncoder) fullBlockTask(w int, s *Scratch) {
	stride := pe.workers
	if w >= len(pe.dsts) {
		return
	}
	dsts, coeffs := s.rowViews((len(pe.dsts) - w + stride - 1) / stride)
	for i, j := w, 0; i < len(pe.dsts); i, j = i+stride, j+1 {
		dsts[j], coeffs[j] = pe.dsts[i], pe.coeffs[i]
	}
	encodeBatchRange(dsts, pe.seg.Blocks(), coeffs, 0, pe.seg.params.BlockSize)
}

// partitionedTask is worker w's share of a PartitionedBlock batch: a
// contiguous column stripe of every coded block. Unlike the seed
// implementation — which launched a fresh goroutine set per coded block — the
// whole batch runs under one dispatch: worker w clears and accumulates columns
// [w·stripe, (w+1)·stripe) of every payload in a single tiled pass.
func (pe *ParallelEncoder) partitionedTask(w int, _ *Scratch) {
	k := pe.seg.params.BlockSize
	stripe := (k + pe.workers - 1) / pe.workers
	if lo := w * stripe; lo < k {
		encodeBatchRange(pe.dsts, pe.seg.Blocks(), pe.coeffs, lo, min(lo+stripe, k))
	}
}

// DecodeSegmentsParallel batch-decodes independent segments with the given
// worker count — the paper's parallel multi-segment decoding (Sec. 5.2):
// each worker owns whole segments, so no cross-worker synchronization is
// needed, and runs the two-stage decoder (DecodeTwoStage) over each. blocksPerSegment[i] must span segment i. Work executes
// on the process-wide SharedPool.
//
// Cancelling ctx stops the sweep at segment granularity: workers finish the
// segment in hand, remaining segments are skipped, and the call returns
// ctx.Err(). Pass context.Background() when cancellation is not needed.
func DecodeSegmentsParallel(ctx context.Context, p Params, blocksPerSegment [][]*CodedBlock, workers int) ([]*Segment, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrWorkerCount, workers)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	segs := make([]*Segment, len(blocksPerSegment))
	errs := make([]error, len(blocksPerSegment))
	SharedPool().Dispatch(workers, func(w int, _ *Scratch) {
		for i := w; i < len(blocksPerSegment); i += workers {
			if ctx.Err() != nil {
				return
			}
			segs[i], errs[i] = DecodeTwoStage(p, blocksPerSegment[i])
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("rlnc: segment %d: %w", i, err)
		}
	}
	return segs, nil
}
