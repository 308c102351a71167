package rlnc

import (
	"bytes"
	"errors"
	"fmt"

	"extremenc/internal/gf256"
	"extremenc/internal/obs"
)

var (
	// stageXorAbsorb times one XOR-only (GF(2) fast path) absorb. Free when no
	// obs sink is installed; its sample count is how operators confirm the
	// fast path is actually running (see `nc smoke xor`).
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
// k-byte payloads are touched exactly once. The segment is decoded in place,
// into its output: n·k bytes, block c at [c·k, (c+1)·k) — the caller's
// (DecodeInto), or else the decoder's own. The decoder moves through three
// states:
//
//  1. GF(2) rows. While every arrival has a 0/1 coefficient vector (a
//     systematic sweep, XOR repair blocks) the decoder keeps [C | x] rows in
//     reduced row-echelon form by pure XOR elimination (addBlockXor): the
//     n-byte C of each row in a slab drawn from the scratch pool at the first
//     arrival, its payload x in the output window of its pivot column. A
//     source block whose pivot is free is one copy, into its own window;
//     source blocks whose row is a unit vector are deliverable early through
//     Block, and at rank n the windows hold the segment.
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
//     kernel, straight into the output, which it overwrites; plane and slab go
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
	// it is the n-byte C of an xorRows row in reduced row-echelon form — zero
	// left of c, 1 at c, 0 at every other pivot — whose payload is window c;
	// in state 2 a 2n-byte [C | T] row of plane in echelon form only — zero
	// left of c, 1 at c, not yet eliminated from the other rows.
	rowForPivot [][]byte

	// State 1's pivot lists, carved from scr. mixed holds the pivots whose row
	// is not the unit vector: a unit row is 0 at every other pivot, so only
	// these can need a new pivot back-substituted out, and a systematic sweep
	// keeps the list empty. used collects, during one forward reduction, the
	// pivots whose rows were added to the arrival: its payload is reduced by
	// their windows once its own pivot, hence its window, is known.
	mixed, used []int

	// Row storage, carved from scr, which the decoder holds from its first
	// arrival until rank n. State 1: xorRows holds the C of the i-th accepted
	// arrival at [i·n, (i+1)·n). State 2: plane holds the [C | T] row of the
	// i-th accepted arrival at [i·2n, (i+1)·2n), slab its payload at
	// [i·k, (i+1)·k).
	scr     *Scratch
	xorRows []byte
	plane   []byte
	slab    []byte

	// out is the segment's storage: DecodeInto's, or one the decoder allocates
	// when it first needs it.
	out []byte

	// seg is the decoded segment, a view of out, set by the AddBlock that
	// reaches rank n.
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

// DecodeInto makes dst, SegmentSize bytes, the storage the segment decodes
// into, block c at [c·k, (c+1)·k): it is where Segment and Block point from
// then on. What the decoder already holds there — GF(2) rows' payloads, or the
// decoded segment of a restored decoder — moves over in one copy, so a
// decoder can be given its window after progress was made. Until rank n dst
// is the decoder's working storage: the caller must leave it alone.
func (d *Decoder) DecodeInto(dst []byte) error {
	if len(dst) != d.params.SegmentSize() {
		return fmt.Errorf("%w: %d-byte output for segments of %v", ErrBlockShape, len(dst), d.params)
	}
	dst = dst[:len(dst):len(dst)]
	if d.out != nil {
		copy(dst, d.out)
	}
	d.out = dst
	if d.seg != nil {
		d.seg = segmentView(d.segID, d.params, dst)
	}
	return nil
}

// output returns the segment's storage, allocating the decoder's own when no
// DecodeInto supplied it.
func (d *Decoder) output() []byte {
	if d.out == nil {
		d.out = make([]byte, d.params.SegmentSize())
	}
	return d.out
}

// window returns block c's window of the output.
func (d *Decoder) window(c int) []byte {
	k := d.params.BlockSize
	return d.out[c*k : (c+1)*k : (c+1)*k]
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
		d.enterDense(d.rowForPivot, d.window)
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

// nextOne returns the first column at or after from where the binary row has
// a 1, or -1. It skips zeros a SIMD stride at a time, so walking a sparse row
// costs its ones, not its width.
func nextOne(row []byte, from int) int {
	if i := bytes.IndexByte(row[from:], 1); i >= 0 {
		return from + i
	}
	return -1
}

// unitRow reports whether the GF(2) row with pivot c, zero left of c, is the
// unit vector e_c.
func unitRow(row []byte, c int) bool { return nextOne(row, c+1) < 0 }

// addBlockXor is the GF(2) elimination fast path: the arriving block and
// every stored row are binary (xorOnly invariant), so every elimination
// factor is 1 and the whole absorb is pure wide-word XOR — no product tables,
// no multiply kernel, no pivot normalization (a binary pivot entry is already
// 1). Rows are kept in full reduced row-echelon form, so once rank reaches n
// the windows hold the source blocks. The payload is touched only by an
// innovative arrival, once its pivot is known: a source block whose pivot is
// free goes into its window in one copy and, with no mixed rows held, is done.
// The caller has already validated the block and counted it received.
func (d *Decoder) addBlockXor(b *CodedBlock) (innovative bool) {
	defer stageXorAbsorb.Start().End()
	// Stage C in the first free slot; a dependent arrival is simply staged
	// over by the next one.
	row := d.stageXorRow(d.rank, b.Coeffs)

	// Forward-reduce against every existing pivot and find this row's pivot
	// (the first 1 in a pivot-free column). The walk continues past the pivot:
	// with out-of-order pivots (sparse vectors) the row can still hold entries
	// in later columns that are already pivoted, and full RREF requires those
	// eliminated too. A stored row is zero left of its pivot, so adding it
	// changes nothing the walk has passed.
	pivot := -1
	d.used = d.used[:0]
	for c := nextOne(row, 0); c >= 0; c = nextOne(row, c+1) {
		if pr := d.rowForPivot[c]; pr != nil {
			gf256.XorSlice(row, pr)
			d.used = append(d.used, c)
		} else if pivot < 0 {
			pivot = c
		}
	}
	if pivot < 0 {
		// Reduced to a zero coefficient row: linearly dependent (Sec. 3).
		d.dependent++
		return false
	}
	d.output()
	win := d.window(pivot)
	copy(win, b.Payload)
	for _, c := range d.used {
		gf256.XorSlice(win, d.window(c))
	}
	// Back-substitute the new pivot out of every stored row: only a mixed row
	// can hold a 1 at it, and each operation is one XOR of C and one of x.
	for j := 0; j < len(d.mixed); {
		c := d.mixed[j]
		if pr := d.rowForPivot[c]; pr[pivot] != 0 {
			gf256.XorSlice(pr, row)
			gf256.XorSlice(d.window(c), win)
			if unitRow(pr, c) {
				d.mixed[j] = d.mixed[len(d.mixed)-1]
				d.mixed = d.mixed[:len(d.mixed)-1]
				continue
			}
		}
		j++
	}
	if !unitRow(row, pivot) {
		d.mixed = append(d.mixed, pivot)
	}
	d.rowForPivot[pivot] = row
	d.rank++
	if d.rank == d.params.BlockCount {
		d.finishXor()
	}
	return true
}

// stageXorRow writes coeffs into slot i of the GF(2) row slab, drawing the
// slab and the pivot lists from the scratch pool on first use, and returns
// the row.
func (d *Decoder) stageXorRow(i int, coeffs []byte) []byte {
	n := d.params.BlockCount
	if d.xorRows == nil {
		d.scr = GetScratch()
		d.xorRows = d.scr.Bytes(n * n)
		idx := d.scr.indices(2 * n)
		d.mixed, d.used = idx[:0:n], idx[n:n:2*n]
	}
	row := d.xorRows[i*n : (i+1)*n : (i+1)*n]
	copy(row, coeffs)
	return row
}

// finishXor ends state 1 at rank n: the reduced rows are the unit vectors, so
// every window already holds its source block, and the row slab goes back to
// the pool.
func (d *Decoder) finishXor() {
	d.seg = segmentView(d.segID, d.params, d.out)
	clear(d.rowForPivot) // the rows live in the slab, which goes back to the pool
	d.releaseScratch()
}

// enterDense draws the plane and the slab from the scratch pool and installs
// GF(2)-reduced rows as the arrivals accepted so far: rows[c] leads with the n
// coefficient bytes of the row whose pivot is c, or is nil, and payload(c) is
// that row's payload. Row c becomes the plane row [C | eᵢ] and the slab
// payload of arrival i, counting in ascending pivot order. A reduced row is in
// particular an echelon row, so nothing needs reducing. rows may be
// d.rowForPivot itself, in which case they live in state 1's row slab: that
// goes back to the pool once they are copied out.
func (d *Decoder) enterDense(rows [][]byte, payload func(c int) []byte) {
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
		copy(d.slab[i*k:(i+1)*k], payload(c)) // before row c is restaged
		d.rowForPivot[c] = d.stageRow(i, row[:n])
		i++
	}
	if xorScr != nil {
		PutScratch(xorScr)
		d.xorRows, d.mixed, d.used = nil, nil, nil
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
// multiply b = C⁻¹·x over the slab, straight into the output windows, and
// hand plane and slab back to the pool. The multiply accumulates, so the
// output is cleared first: state 1 may have left payloads there. It runs here
// rather than lazily in Segment so that Ready means decoded: a caller that
// feeds AddBlock until Ready has paid for the whole decode, and the
// rlnc.absorb stage times it.
func (d *Decoder) finish() {
	defer stageAbsorb.Start().End()
	n, k := d.params.BlockCount, d.params.BlockSize
	jordanReduce(d.rowForPivot)

	out := d.output()
	clear(out)
	seg := segmentView(d.segID, d.params, out)
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
	d.mixed, d.used = nil, nil
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

// Segment returns the recovered segment, a view of the decoder's output. It
// fails with ErrNotReady until rank n is reached. Every call returns the same
// *Segment until a DecodeInto moves the output; the decoder keeps no other
// copy of the data.
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
	if row := d.rowForPivot[i]; row == nil || !unitRow(row, i) {
		return nil, false
	}
	return d.window(i), true
}
