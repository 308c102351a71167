package rlnc

import (
	"errors"
	"fmt"

	"extremenc/internal/gf256"
	"extremenc/internal/obs"
)

// stageXorAbsorb times one XOR-only (GF(2) fast path) absorb. Free when no
// obs sink is installed; its sample count is how operators confirm the fast
// path is actually running (see cmd/ncserve xor-smoke).
var stageXorAbsorb = obs.StageOf("rlnc.xor_absorb")

// Decoding errors.
var (
	ErrNotReady     = errors.New("rlnc: decoder does not hold a full-rank set yet")
	ErrWrongSegment = errors.New("rlnc: coded block belongs to a different segment")
)

// Decoder recovers a segment from coded blocks by progressive Gauss–Jordan
// elimination (paper Sec. 3). Each arriving block is reduced against the
// rows held so far; a block that reduces to all zeros is linearly dependent
// and is discarded — no explicit dependence check is needed. Rows are kept
// in reduced row-echelon form over the aggregate [C | x] matrix, so once
// rank reaches n the payload columns already hold the source blocks.
type Decoder struct {
	params  Params
	segID   uint32
	haveSeg bool

	// rowForPivot[c] is the aggregate row (n coefficient bytes followed by k
	// payload bytes) whose pivot is column c, or nil.
	rowForPivot [][]byte
	rank        int

	received  int
	dependent int

	// xorOnly gates the GF(2) elimination fast path: true while every
	// absorbed block has had a 0/1 coefficient vector. XOR-eliminating
	// binary rows against binary rows keeps every stored row binary (GF(2^8)
	// addition is XOR), so the invariant survives arbitrarily many fast-path
	// absorbs; the first dense arrival clears it permanently and the decoder
	// drops into the general table-driven machinery.
	xorOnly bool

	// scr is the decoder's reusable workspace for the batched absorb path,
	// drawn lazily from the shared scratch pool.
	scr *Scratch
}

// NewDecoder returns an empty decoder for the given configuration. Options
// follow the unified constructor-option shape: WithScratch pins the batched
// absorb path to a caller-owned workspace instead of the shared pool.
func NewDecoder(p Params, opts ...DecoderOption) (*Decoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return &Decoder{
		params:      p,
		rowForPivot: make([][]byte, p.BlockCount),
		xorOnly:     true,
		scr:         cfg.scratch,
	}, nil
}

// Params returns the coding configuration.
func (d *Decoder) Params() Params { return d.params }

// scratch returns the decoder's workspace, drawing one from the shared pool
// on first use. It is held for the decoder's lifetime, so repeated AddBlocks
// calls reuse the same staging storage.
func (d *Decoder) scratch() *Scratch {
	if d.scr == nil {
		d.scr = GetScratch()
	}
	return d.scr
}

func wrongSegmentError(have, got uint32) error {
	return fmt.Errorf("%w: have %d, got %d", ErrWrongSegment, have, got)
}

// Rank returns the number of linearly independent blocks absorbed so far.
func (d *Decoder) Rank() int { return d.rank }

// Ready reports whether the segment can be recovered.
func (d *Decoder) Ready() bool { return d.rank == d.params.BlockCount }

// Received returns how many blocks were offered to AddBlock.
func (d *Decoder) Received() int { return d.received }

// Dependent returns how many offered blocks were linearly dependent.
func (d *Decoder) Dependent() int { return d.dependent }

// AddBlock absorbs one coded block. It returns true when the block was
// innovative (increased rank) and false when it was linearly dependent with
// blocks already held. Blocks for a different segment are rejected.
func (d *Decoder) AddBlock(b *CodedBlock) (innovative bool, err error) {
	if err := b.Validate(d.params); err != nil {
		return false, err
	}
	if d.haveSeg && b.SegmentID != d.segID {
		return false, wrongSegmentError(d.segID, b.SegmentID)
	}
	d.segID, d.haveSeg = b.SegmentID, true
	d.received++

	if d.xorOnly {
		if b.IsBinary() {
			return d.addBlockXor(b)
		}
		// First dense arrival: leave the GF(2) fast path for good.
		d.xorOnly = false
	}

	n, k := d.params.BlockCount, d.params.BlockSize
	row := make([]byte, n+k)
	copy(row, b.Coeffs)
	copy(row[n:], b.Payload)

	// Forward-reduce against every existing pivot and find this row's pivot
	// (the first non-zero entry in a pivot-free column). The sweep must
	// continue past the pivot: with out-of-order pivots (sparse vectors) the
	// row can still hold entries in later columns that are already pivoted,
	// and full RREF requires those eliminated too. Stored pivot rows are
	// normalized (pivot entry 1), so adding f·pivotRow cancels column c.
	pivot := -1
	for c := 0; c < n; c++ {
		f := row[c]
		if f == 0 {
			continue
		}
		if pr := d.rowForPivot[c]; pr != nil {
			gf256.MulAddSlice(row, pr, f)
			continue
		}
		if pivot < 0 {
			pivot = c
		}
	}
	if pivot < 0 {
		// Reduced to a zero coefficient row: linearly dependent (Sec. 3).
		d.dependent++
		return false, nil
	}

	if pv := row[pivot]; pv != 1 {
		gf256.ScaleSlice(row, gf256.Inv(pv))
	}
	// Back-substitute the new pivot out of every existing row to maintain
	// full reduced row-echelon form, one single-source row operation per
	// stored row. This per-arrival path is what the fetcher runs for every
	// record; each row operation is the gf256 kernel rung in use (AVX2 where
	// the host has it), but none of them is fused across rows — that is the
	// batched path (AddBlocks), which the decode ladder measures against this
	// one as its "progressive-scalar" rung.
	for c := 0; c < n; c++ {
		pr := d.rowForPivot[c]
		if pr == nil {
			continue
		}
		if f := pr[pivot]; f != 0 {
			gf256.MulAddSlice(pr, row, f)
		}
	}
	d.rowForPivot[pivot] = row
	d.rank++
	return true, nil
}

// addBlockXor is the GF(2) elimination fast path: the arriving block and
// every stored row are binary (xorOnly invariant), so every elimination
// factor is 1 and the whole absorb is pure wide-word XOR — no log/exp or
// product tables, no MulAddSlice, no pivot normalization (a binary pivot
// entry is already 1). The resulting rows are byte-identical to what the
// general path would produce, because MulAddSlice with coefficient 1 *is*
// XorSlice; only the arithmetic dispatched differs. The caller has already
// validated the block and counted it received.
func (d *Decoder) addBlockXor(b *CodedBlock) (innovative bool, err error) {
	defer stageXorAbsorb.Start().End()
	n, k := d.params.BlockCount, d.params.BlockSize
	row := make([]byte, n+k)
	copy(row, b.Coeffs)
	copy(row[n:], b.Payload)

	// Forward-reduce: any non-zero entry in a pivoted column is 1, so the
	// row operation is a plain XOR of the stored pivot row.
	pivot := -1
	for c := 0; c < n; c++ {
		if row[c] == 0 {
			continue
		}
		if pr := d.rowForPivot[c]; pr != nil {
			gf256.XorSlice(row, pr)
			continue
		}
		if pivot < 0 {
			pivot = c
		}
	}
	if pivot < 0 {
		d.dependent++
		return false, nil
	}
	// Back-substitute the new pivot out of every stored row; stored entries
	// at the pivot column are 0 or 1, so again each operation is one XOR.
	for c := 0; c < n; c++ {
		pr := d.rowForPivot[c]
		if pr == nil {
			continue
		}
		if pr[pivot] != 0 {
			gf256.XorSlice(pr, row)
		}
	}
	d.rowForPivot[pivot] = row
	d.rank++
	return true, nil
}

// Segment returns the recovered segment. It fails with ErrNotReady until
// rank n is reached.
func (d *Decoder) Segment() (*Segment, error) {
	if !d.Ready() {
		return nil, fmt.Errorf("%w: rank %d of %d", ErrNotReady, d.rank, d.params.BlockCount)
	}
	seg, err := NewSegment(d.segID, d.params)
	if err != nil {
		return nil, err
	}
	n := d.params.BlockCount
	for i := 0; i < n; i++ {
		copy(seg.Block(i), d.rowForPivot[i][n:])
	}
	return seg, nil
}

// Block returns decoded source block i once available. With full RREF rows,
// source block i is recoverable as soon as row i's coefficient part has
// collapsed to the unit vector — useful for early delivery in streaming.
func (d *Decoder) Block(i int) ([]byte, bool) {
	n := d.params.BlockCount
	if i < 0 || i >= n {
		return nil, false
	}
	row := d.rowForPivot[i]
	if row == nil {
		return nil, false
	}
	for c := 0; c < n; c++ {
		want := byte(0)
		if c == i {
			want = 1
		}
		if row[c] != want {
			return nil, false
		}
	}
	return row[n : n+d.params.BlockSize], true
}
