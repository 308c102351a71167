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

// ParallelEncoder produces batches of coded blocks on the process-wide
// SharedPool. Output is deterministic for a given seed regardless of worker
// count or scheduling: the coefficient matrix is drawn up front and workers
// write disjoint regions. A FullBlock batch runs where batchMul's rule puts
// it — below dispatchFloor on the caller, which is where a pump round of small
// records belongs — while PartitionedBlock, the paper's Fig. 10 ablation,
// always splits its columns across the workers. It is safe for concurrent
// use; dispatched batches run one at a time.
type ParallelEncoder struct {
	mul batchMul
}

// NewParallelEncoder returns an encoder with the given worker count and
// partitioning mode. Work executes on the process-wide SharedPool; workers
// only bounds how many concurrent parts this encoder dispatches.
func NewParallelEncoder(workers int, mode EncodeMode) (*ParallelEncoder, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("%w: got %d", ErrWorkerCount, workers)
	}
	if mode != FullBlock && mode != PartitionedBlock {
		return nil, fmt.Errorf("%w: %d", ErrEncodeMode, int(mode))
	}
	return &ParallelEncoder{mul: batchMul{workers: workers, stripes: mode == PartitionedBlock}}, nil
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
// only thing that touches them. Nothing is allocated. A single-worker encoder,
// and a FullBlock batch below dispatchFloor, run on the caller.
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
	pe.mul.run(dsts, seg.Blocks(), coeffs, p.BlockSize)
	return nil
}

// dispatchFloor is the multiply-add work, in bytes (batch × rows × row
// width), below which batchMul runs a batch on its caller. Handing a batch to
// the pool costs channel sends, worker wake-ups and a WaitGroup park — about
// 15 µs a batch on a 2-vCPU host — which a batch under ~1 MiB of kernel work
// does not earn back. n=128, k=4096 batches of two or more records reach it; a
// pump round of n=32, k=256 records does not (DESIGN.md §8 has the numbers).
const dispatchFloor = 1 << 20

// batchMul decides where a batch multiply dsts[b] = Σ_j coeffs[b][j]·srcs[j],
// over the first width columns, runs: below dispatchFloor on its caller, at
// or above it split by whole rows across SharedPool. A stripes multiply (the
// PartitionedBlock ablation) is split by columns whatever its size. A
// dispatched batch's operands live here for its workers, the task is bound
// once and the group reused, so a steady-state batch allocates nothing; mu
// makes a dispatch exclusive, and a batch run on its caller touches none of
// it.
type batchMul struct {
	workers int
	stripes bool

	mu                 sync.Mutex
	wg                 sync.WaitGroup
	task               func(w int, s *Scratch) // part, bound on first dispatch
	parts              int
	dsts, srcs, coeffs [][]byte
	width              int
}

// run computes the batch where the rule says it belongs.
func (m *batchMul) run(dsts, srcs, coeffs [][]byte, width int) {
	switch {
	case m.stripes && m.workers > 1:
		m.dispatch(m.workers, dsts, srcs, coeffs, width)
	case !m.stripes && m.pooled(len(dsts), len(srcs), width):
		m.dispatch(min(m.workers, len(dsts)), dsts, srcs, coeffs, width)
	default:
		encodeBatchRange(dsts, srcs, coeffs, 0, width)
	}
}

// pooled is the rule for a row split: a batch of batch destinations over
// rows sources of width bytes goes to the pool when it has two parts to split
// and at least dispatchFloor bytes of multiply-add to split.
func (m *batchMul) pooled(batch, rows, width int) bool {
	return min(m.workers, batch) > 1 && batch*rows*width >= dispatchFloor
}

// dispatch runs the batch as parts pool tasks and returns when every part is
// done.
func (m *batchMul) dispatch(parts int, dsts, srcs, coeffs [][]byte, width int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.task == nil {
		m.task = m.part
	}
	m.parts, m.dsts, m.srcs, m.coeffs, m.width = parts, dsts, srcs, coeffs, width
	SharedPool().dispatch(&m.wg, parts, m.task)
	m.dsts, m.srcs, m.coeffs = nil, nil, nil
}

// part is part w of a dispatched batch. A row split gives it a contiguous run
// of whole destinations; a stripes split gives it columns [w·stripe,
// (w+1)·stripe) of every destination. Either way it is one tiled pass.
func (m *batchMul) part(w int, _ *Scratch) {
	if m.stripes {
		stripe := (m.width + m.parts - 1) / m.parts
		if lo := w * stripe; lo < m.width {
			encodeBatchRange(m.dsts, m.srcs, m.coeffs, lo, min(lo+stripe, m.width))
		}
		return
	}
	lo, hi := w*len(m.dsts)/m.parts, (w+1)*len(m.dsts)/m.parts
	encodeBatchRange(m.dsts[lo:hi], m.srcs, m.coeffs[lo:hi], 0, m.width)
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
