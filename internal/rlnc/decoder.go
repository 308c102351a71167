package rlnc

import (
	"errors"
	"fmt"

	"extremenc/internal/gf256"
	"extremenc/internal/obs"
)

var (
	// stageXorAbsorb times one XOR-only (GF(2) fast path) absorb. Free when no
	// obs sink is installed; its sample count is how operators confirm the
	// fast path is actually running (see cmd/ncserve xor-smoke).
	stageXorAbsorb = obs.StageOf("rlnc.xor_absorb")

	// stageAbsorb times the payload work of one dense decode — the inversion's
	// back-substitution plus the b = C⁻¹·x multiply, run once per segment by
	// the AddBlock that reaches rank n. Its sample count is the number of
	// segments decoded on the dense path.
	stageAbsorb = obs.StageOf("rlnc.absorb")
)

// Decoding errors.
var (
	ErrNotReady     = errors.New("rlnc: decoder does not hold a full-rank set yet")
	ErrWrongSegment = errors.New("rlnc: coded block belongs to a different segment")
)

// planeStep is the granularity row operations on the coefficient plane are
// widened to. Plane rows are zero outside their live span, so widening is
// free, and it keeps every operation in whole SIMD steps: a span-trimmed
// slice a few bytes long would otherwise run a byte loop.
const planeStep = 32

// Decoder recovers a segment from coded blocks. Decoding *is* encoding (paper
// Sec. 5.2): the dense path inverts the n×n coefficient matrix on rows of 2n
// bytes and recovers the payload with one encode-shaped multiply, so the
// k-byte payloads are touched exactly once. The decoder moves through three
// states:
//
//  1. GF(2) rows. While every arrival has a 0/1 coefficient vector (a
//     systematic sweep, XOR repair blocks) the decoder keeps [C | x] rows in
//     reduced row-echelon form by pure XOR elimination (addBlockXor), in a
//     slab drawn from the scratch pool at the first arrival. Source blocks
//     whose row has collapsed to a unit vector are deliverable early through
//     Block; at rank n the rows are copied out as the segment and the slab
//     goes back to the pool.
//  2. [C | T] plane + payload slab. From the first dense arrival on, each
//     arrival's coefficients are forward-reduced against the pivots held —
//     on a 2n-byte row [C | T], where T records the combination of accepted
//     arrivals the row has become — and an innovative arrival's payload is
//     copied, as received, into an n·k slab. Innovation, rank and dependence
//     are decided per arrival on the plane alone; a dependent arrival's
//     payload is never read. Rows held by state 1 are valid coded blocks and
//     enter the plane as such.
//  3. Segment. The arrival that reaches rank n back-substitutes the plane to
//     [I | C⁻¹] and multiplies C⁻¹ into the slab with the tiled batch-encode
//     kernel, straight into the segment Segment returns; plane and slab go
//     back to the scratch pool.
//
// A Decoder is not safe for concurrent use.
type Decoder struct {
	params  Params
	segID   uint32
	haveSeg bool

	rank      int
	received  int
	dependent int

	// xorOnly is true while the decoder is in state 1: every absorbed block
	// has had a 0/1 coefficient vector. XOR-eliminating binary rows against
	// binary rows keeps every stored row binary (GF(2^8) addition is XOR), so
	// the invariant survives arbitrarily many fast-path absorbs; the first
	// dense arrival clears it for good.
	xorOnly bool

	// rowForPivot[c] is the row whose pivot is column c, or nil. In state 1
	// it is an n+k byte [C | x] row of xorRows in reduced row-echelon form; in
	// state 2 a 2n-byte [C | T] row of plane in echelon form only — zero left
	// of c, 1 at c, not yet eliminated from the other rows.
	rowForPivot [][]byte

	// Row storage, carved from scr, which the decoder holds from its first
	// arrival until rank n. State 1: xorRows holds the i-th accepted arrival's
	// row at [i·(n+k), (i+1)·(n+k)). State 2: plane holds the [C | T] row of
	// the i-th accepted arrival at [i·2n, (i+1)·2n), slab its payload at
	// [i·k, (i+1)·k).
	scr     *Scratch
	xorRows []byte
	plane   []byte
	slab    []byte

	// seg is the decoded segment, set by the AddBlock that reaches rank n.
	seg *Segment
}

// NewDecoder returns an empty decoder for the given configuration. Decoders
// are deterministic; options are accepted for constructor symmetry and
// ignored.
func NewDecoder(p Params, opts ...DecoderOption) (*Decoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Decoder{
		params:      p,
		rowForPivot: make([][]byte, p.BlockCount),
		xorOnly:     true,
	}, nil
}

// Params returns the coding configuration.
func (d *Decoder) Params() Params { return d.params }

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
// blocks already held. Blocks for a different segment are rejected. The
// decoder copies what it keeps, so the caller may reuse b afterwards.
//
// On the dense path the cost of an arrival is a forward reduction of 2n
// coefficient bytes plus, when innovative, one k-byte copy — except for the
// arrival that reaches rank n, which runs the whole payload multiply (about
// n² row operations of k bytes) before it returns. Blocks offered after that
// are counted dependent and cost nothing.
func (d *Decoder) AddBlock(b *CodedBlock) (innovative bool, err error) {
	if err := b.Validate(d.params); err != nil {
		return false, err
	}
	if d.haveSeg && b.SegmentID != d.segID {
		return false, wrongSegmentError(d.segID, b.SegmentID)
	}
	return d.absorb(b), nil
}

// absorb is AddBlock for a block already checked against the decoder's shape
// and segment.
func (d *Decoder) absorb(b *CodedBlock) (innovative bool) {
	d.segID, d.haveSeg = b.SegmentID, true
	d.received++
	if d.Ready() {
		d.dependent++
		return false
	}
	if d.xorOnly {
		if b.IsBinary() {
			return d.addBlockXor(b)
		}
		// First dense arrival: leave the GF(2) fast path for good. The rows
		// it holds are coded blocks like any other.
		d.xorOnly = false
		d.enterDense(d.rowForPivot)
	}
	return d.addBlockDense(b)
}

// AddBlocks absorbs a batch of coded blocks in order and returns how many of
// them were innovative. The batch is validated up front and rejected as a
// whole on the first invalid or wrong-segment block, absorbing nothing.
func (d *Decoder) AddBlocks(blocks []*CodedBlock) (innovative int, err error) {
	if len(blocks) == 0 {
		return 0, nil
	}
	segID := d.segID
	if !d.haveSeg {
		segID = blocks[0].SegmentID
	}
	for _, b := range blocks {
		if err := b.Validate(d.params); err != nil {
			return 0, err
		}
		if b.SegmentID != segID {
			return 0, wrongSegmentError(segID, b.SegmentID)
		}
	}
	for _, b := range blocks {
		if d.absorb(b) {
			innovative++
		}
	}
	return innovative, nil
}

// addBlockXor is the GF(2) elimination fast path: the arriving block and
// every stored row are binary (xorOnly invariant), so every elimination
// factor is 1 and the whole absorb is pure wide-word XOR — no product tables,
// no multiply kernel, no pivot normalization (a binary pivot entry is already
// 1). Rows are kept in full reduced row-echelon form, so once rank reaches n
// the payload columns hold the source blocks. The caller has already
// validated the block and counted it received.
func (d *Decoder) addBlockXor(b *CodedBlock) (innovative bool) {
	defer stageXorAbsorb.Start().End()
	n := d.params.BlockCount
	// Stage the arrival in the first free slot; a dependent arrival is simply
	// staged over by the next one.
	row := d.stageXorRow(d.rank, b.Coeffs, b.Payload)

	// Forward-reduce against every existing pivot and find this row's pivot
	// (the first non-zero entry in a pivot-free column). The sweep continues
	// past the pivot: with out-of-order pivots (sparse vectors) the row can
	// still hold entries in later columns that are already pivoted, and full
	// RREF requires those eliminated too. Any non-zero entry is 1, so the row
	// operation is a plain XOR of the stored pivot row.
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
		// Reduced to a zero coefficient row: linearly dependent (Sec. 3).
		d.dependent++
		return false
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
	if d.rank == n {
		d.finishXor()
	}
	return true
}

// stageXorRow writes [coeffs | payload] into slot i of the GF(2) row slab,
// drawing the slab from the scratch pool on first use, and returns the row.
func (d *Decoder) stageXorRow(i int, coeffs, payload []byte) []byte {
	n, k := d.params.BlockCount, d.params.BlockSize
	if d.xorRows == nil {
		d.scr = GetScratch()
		d.xorRows = d.scr.Bytes(n * (n + k))
	}
	row := d.xorRows[i*(n+k) : (i+1)*(n+k) : (i+1)*(n+k)]
	copy(row, coeffs)
	copy(row[n:], payload)
	return row
}

// finishXor ends state 1 at rank n: the reduced rows are [eᵢ | bᵢ], so the
// segment is their payload halves, and the row slab goes back to the pool.
func (d *Decoder) finishXor() {
	n := d.params.BlockCount
	seg := newSegment(d.segID, d.params)
	for i, row := range d.rowForPivot {
		copy(seg.Block(i), row[n:])
	}
	d.seg = seg
	clear(d.rowForPivot) // the rows live in the slab, which goes back to the pool
	d.releaseScratch()
}

// enterDense draws the plane and the slab from the scratch pool and installs
// rows — [C | x] rows in reduced row-echelon form, indexed by pivot column —
// as the arrivals accepted so far: row c becomes the plane row [C | eᵢ] and
// the slab payload x of arrival i, counting in ascending pivot order. A
// reduced row is in particular an echelon row, so nothing needs reducing.
// rows may be d.rowForPivot itself, in which case they live in state 1's row
// slab: that goes back to the pool once they are copied out.
func (d *Decoder) enterDense(rows [][]byte) {
	n, k := d.params.BlockCount, d.params.BlockSize
	w := 2 * n
	xorScr := d.scr
	d.scr = GetScratch()
	buf := d.scr.Bytes(n * (w + k))
	d.plane, d.slab = buf[:n*w], buf[n*w:]
	i := 0
	for c, row := range rows {
		if row == nil {
			continue
		}
		d.rowForPivot[c] = d.stageRow(i, row[:n])
		copy(d.slab[i*k:(i+1)*k], row[n:])
		i++
	}
	if xorScr != nil {
		PutScratch(xorScr)
		d.xorRows = nil
	}
}

// stageRow writes [coeffs | eᵢ] into plane row i and returns the row.
func (d *Decoder) stageRow(i int, coeffs []byte) []byte {
	n := d.params.BlockCount
	row := d.plane[i*2*n : (i+1)*2*n : (i+1)*2*n]
	copy(row, coeffs)
	clear(row[n:])
	row[n+i] = 1
	return row
}

// addBlockDense is stage 1 of the two-stage decode for one arrival: stage its
// coefficients as the plane row [C | eᵢ], forward-reduce that row against the
// pivots held, and keep it — with the payload, as received — if a pivot-free
// column survives. The caller has validated the block and counted it
// received, and rank is below n.
func (d *Decoder) addBlockDense(b *CodedBlock) (innovative bool) {
	n, k := d.params.BlockCount, d.params.BlockSize
	w := 2 * n
	i := d.rank
	row := d.stageRow(i, b.Coeffs)

	// Row operations run over the live span only: a pivot row is zero left of
	// its pivot, and the T half of accepted row j reaches no further than its
	// own seed at column n+j. Stored pivot rows are normalized, so adding
	// f·pivotRow cancels column c; they are not reduced against each other, so
	// each factor is read only after the operations before it.
	hi := min((n+i+planeStep)&^(planeStep-1), w)
	pivot := -1
	for c := 0; c < n; c++ {
		f := row[c]
		if f == 0 {
			continue
		}
		pr := d.rowForPivot[c]
		if pr == nil {
			pivot = c
			break
		}
		lo := c &^ (planeStep - 1)
		gf256.MulAddSlice(row[lo:hi], pr[lo:hi], f)
	}
	if pivot < 0 {
		// Reduced to a zero coefficient row: linearly dependent (Sec. 3). The
		// plane row is simply staged over by the next arrival.
		d.dependent++
		return false
	}
	if pv := row[pivot]; pv != 1 {
		gf256.ScaleSlice(row[pivot&^(planeStep-1):hi], gf256.Inv(pv))
	}
	copy(d.slab[i*k:(i+1)*k], b.Payload)
	d.rowForPivot[pivot] = row
	d.rank++
	if d.rank == n {
		d.finish()
	}
	return true
}

// finish is stage 2, run by the AddBlock that reaches rank n: reduce the plane
// to [I | C⁻¹], then recover every source block with one encode-shaped
// multiply b = C⁻¹·x over the slab, and hand plane and slab back to the pool.
// It runs here rather than lazily in Segment so that Ready means decoded: a
// caller that feeds AddBlock until Ready has paid for the whole decode, and
// the rlnc.absorb stage times it.
func (d *Decoder) finish() {
	defer stageAbsorb.Start().End()
	n, k := d.params.BlockCount, d.params.BlockSize
	jordanReduce(d.rowForPivot)

	seg := newSegment(d.segID, d.params)
	payloads, inv := d.scr.rowViews(n)
	for i := range payloads {
		payloads[i] = d.slab[i*k : (i+1)*k : (i+1)*k]
		inv[i] = d.rowForPivot[i][n:]
	}
	accumulateBatch(seg.rows, payloads, inv, 0, k)
	d.seg = seg

	clear(d.rowForPivot) // the rows live in the plane, which goes back to the pool
	d.releaseScratch()
}

// releaseScratch returns the row storage to the pool.
func (d *Decoder) releaseScratch() {
	if d.scr != nil {
		PutScratch(d.scr)
	}
	d.scr, d.xorRows, d.plane, d.slab = nil, nil, nil, nil
}

// jordanReduce turns echelon rows into reduced ones. rows[c] is the row with
// pivot column c — zero left of c, 1 at c — or nil; on return every row is
// also zero at every other pivot column. Columns past len(rows) ride along,
// which is how [C | I] becomes [I | C⁻¹]. Rows are finished bottom-up: every
// pivot row below the current one is already final, hence zero at every other
// pivot column, so the current row's factors can all be read up front and
// applied four at a time; and a pivot row is zero left of its pivot, so each
// operation starts at the lowest pivot it applies.
func jordanReduce(rows [][]byte) {
	for r := len(rows) - 2; r >= 0; r-- {
		row := rows[r]
		if row == nil {
			continue
		}
		var src [4][]byte
		var f [4]byte
		m := 0
		for c := len(rows) - 1; c > r; c-- {
			if rows[c] != nil && row[c] != 0 {
				src[m], f[m] = rows[c], row[c]
				m++
			}
			if m == 4 || (m > 0 && c == r+1) {
				for ; m < 4; m++ {
					src[m], f[m] = src[0], 0
				}
				// Gathered in descending order, so every gathered row's pivot
				// is at or right of column c.
				lo := c &^ (planeStep - 1)
				gf256.MulAddSlice4(row[lo:], src[0][lo:], src[1][lo:], src[2][lo:], src[3][lo:], f[0], f[1], f[2], f[3])
				m = 0
			}
		}
	}
}

// Segment returns the recovered segment. It fails with ErrNotReady until
// rank n is reached. Every call returns the same *Segment; the decoder keeps
// no other copy of the data.
func (d *Decoder) Segment() (*Segment, error) {
	if !d.Ready() {
		return nil, fmt.Errorf("%w: rank %d of %d", ErrNotReady, d.rank, d.params.BlockCount)
	}
	return d.seg, nil
}

// Block returns decoded source block i once available. On the GF(2) path the
// rows are kept fully reduced, so source block i is deliverable as soon as
// row i's coefficient part has collapsed to the unit vector — a systematic
// sweep delivers every block on arrival. Once a dense block has been absorbed
// the payloads stay as received until rank n, and every block becomes
// available together.
func (d *Decoder) Block(i int) ([]byte, bool) {
	n := d.params.BlockCount
	if i < 0 || i >= n {
		return nil, false
	}
	if d.seg != nil {
		return d.seg.Block(i), true
	}
	if !d.xorOnly {
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
