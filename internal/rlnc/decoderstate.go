package rlnc

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Decoder progress wire format (all integers big-endian):
//
//	offset        size       field
//	0             4          magic "XNCD"
//	4             4          version
//	8             4          block count n
//	12            4          block size k
//	16            4          segment ID
//	20            1          flags (bit 0: segment ID bound)
//	21            4          rank
//	25            4          received
//	29            4          dependent
//	33            ceil(n/8)  pivot bitmap (bit c set ⇒ row with pivot c held)
//	…             rank·(n+k) aggregate rows, ascending pivot order
//	end−4         4          CRC-32 (IEEE) over everything above
//
// Serializing mid-decode progress is what makes a fetch resumable across
// process restarts: rank, not bytes, is the unit of progress in RLNC, and
// the RREF rows are exactly the rank held so far. The rows are the wire
// contract; how a live decoder holds that rank (decoder.go) is not.
const (
	decoderStateMagic   = "XNCD"
	decoderStateVersion = 1
	decoderStateFixed   = 4 + 4 + 4 + 4 + 4 + 1 + 4 + 4 + 4
)

// ErrBadDecoderState reports an unusable serialized decoder.
var ErrBadDecoderState = errors.New("rlnc: bad decoder state")

var (
	_ encoding.BinaryMarshaler   = (*Decoder)(nil)
	_ encoding.BinaryUnmarshaler = (*Decoder)(nil)
)

// MarshalBinary serializes the decoder's progress — parameters, counters,
// and the rank held so far as [C | x] rows in reduced row-echelon form — so
// decoding can resume later, in another process, from the same rank. The
// reduced form of a row space is unique, so the blob depends only on what was
// absorbed, not on which state the decoder holds it in: on the dense path the
// rows are materialized here, from a copy of the plane, and the decoder itself
// is left as it was.
func (d *Decoder) MarshalBinary() ([]byte, error) {
	n, k := d.params.BlockCount, d.params.BlockSize
	bitmapLen := (n + 7) / 8
	out := make([]byte, decoderStateFixed+bitmapLen+d.rank*(n+k)+4)
	copy(out, decoderStateMagic)
	binary.BigEndian.PutUint32(out[4:], decoderStateVersion)
	binary.BigEndian.PutUint32(out[8:], uint32(n))
	binary.BigEndian.PutUint32(out[12:], uint32(k))
	binary.BigEndian.PutUint32(out[16:], d.segID)
	if d.haveSeg {
		out[20] = 1
	}
	binary.BigEndian.PutUint32(out[21:], uint32(d.rank))
	binary.BigEndian.PutUint32(out[25:], uint32(d.received))
	binary.BigEndian.PutUint32(out[29:], uint32(d.dependent))
	bitmap := out[decoderStateFixed : decoderStateFixed+bitmapLen]
	rows := out[decoderStateFixed+bitmapLen : len(out)-4]
	switch {
	case d.seg != nil:
		// Decoded: row c is [e_c | source block c].
		for c := 0; c < n; c++ {
			bitmap[c/8] |= 1 << (c % 8)
			row := rows[c*(n+k) : (c+1)*(n+k)]
			row[c] = 1
			copy(row[n:], d.seg.Block(c))
		}
	case d.xorOnly:
		// Row c is its C and the payload in window c.
		i := 0
		for c, row := range d.rowForPivot {
			if row == nil {
				continue
			}
			bitmap[c/8] |= 1 << (c % 8)
			out := rows[i*(n+k) : (i+1)*(n+k)]
			copy(out[copy(out, row):], d.window(c))
			i++
		}
	default:
		d.reducedRows(rows, bitmap)
	}
	binary.BigEndian.PutUint32(out[len(out)-4:], crc32.ChecksumIEEE(out[:len(out)-4]))
	return out, nil
}

// reducedRows writes the dense path's rank as [C | x] rows in reduced
// row-echelon form, ascending pivot order, into rows, and marks the pivots in
// bitmap. It Jordan-reduces a copy of the plane — the T half then says which
// combination of the received payloads each reduced row is — and multiplies T
// into the slab, straight into rows.
func (d *Decoder) reducedRows(rows, bitmap []byte) {
	n, k := d.params.BlockCount, d.params.BlockSize
	w := 2 * n
	work := append([]byte(nil), d.plane[:d.rank*w]...)
	byPivot := make([][]byte, n)
	for i := 0; i < d.rank; i++ {
		row := work[i*w : (i+1)*w]
		// An echelon row's pivot is its leading entry.
		c := 0
		for row[c] == 0 {
			c++
		}
		byPivot[c] = row
	}
	jordanReduce(byPivot)

	dsts := make([][]byte, 0, d.rank)
	coeffs := make([][]byte, 0, d.rank)
	srcs := make([][]byte, d.rank)
	for i := range srcs {
		srcs[i] = d.slab[i*k : (i+1)*k]
	}
	for c, row := range byPivot {
		if row == nil {
			continue
		}
		bitmap[c/8] |= 1 << (c % 8)
		out := rows[len(dsts)*(n+k):][:n+k]
		copy(out, row[:n])
		dsts = append(dsts, out[n:])
		coeffs = append(coeffs, row[n:n+d.rank])
	}
	accumulateBatch(dsts, srcs, coeffs, 0, k)
}

// UnmarshalBinary restores a decoder from MarshalBinary output, replacing
// any existing state. Beyond the checksum it verifies the structural
// invariant the elimination depends on: every stored row leads with a 1 at
// its own pivot and is eliminated against every other pivot column, i.e. the
// rows really are in reduced row-echelon form.
func (d *Decoder) UnmarshalBinary(data []byte) error {
	if len(data) < decoderStateFixed+4 {
		return fmt.Errorf("%w: %d bytes", ErrBadDecoderState, len(data))
	}
	if string(data[:4]) != decoderStateMagic {
		return fmt.Errorf("%w: magic", ErrBadDecoderState)
	}
	if v := binary.BigEndian.Uint32(data[4:]); v != decoderStateVersion {
		return fmt.Errorf("%w: version %d", ErrBadDecoderState, v)
	}
	p := Params{
		BlockCount: int(binary.BigEndian.Uint32(data[8:])),
		BlockSize:  int(binary.BigEndian.Uint32(data[12:])),
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadDecoderState, err)
	}
	n, k := p.BlockCount, p.BlockSize
	bitmapLen := (n + 7) / 8
	rank := int(binary.BigEndian.Uint32(data[21:]))
	if rank < 0 || rank > n {
		return fmt.Errorf("%w: rank %d of %d", ErrBadDecoderState, rank, n)
	}
	want := decoderStateFixed + bitmapLen + rank*(n+k) + 4
	if len(data) != want {
		return fmt.Errorf("%w: have %d bytes, want %d", ErrBadDecoderState, len(data), want)
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(tail) {
		return fmt.Errorf("%w: checksum", ErrBadDecoderState)
	}

	bitmap := data[decoderStateFixed : decoderStateFixed+bitmapLen]
	pivots := make([]int, 0, rank)
	for c := 0; c < n; c++ {
		if bitmap[c/8]&(1<<(c%8)) != 0 {
			pivots = append(pivots, c)
		}
	}
	if len(pivots) != rank {
		return fmt.Errorf("%w: bitmap holds %d pivots, rank says %d", ErrBadDecoderState, len(pivots), rank)
	}
	// rows[c] views the blob's row with pivot c. The GF(2) fast-path gate is
	// recomputed from the rows: all-binary coefficients are exactly the
	// invariant the XOR-only elimination requires, so a resumed systematic
	// session picks the fast path back up.
	rows := make([][]byte, n)
	binaryRows := true
	off := decoderStateFixed + bitmapLen
	for _, c := range pivots {
		row := data[off : off+n+k]
		off += n + k
		if row[c] != 1 {
			return fmt.Errorf("%w: pivot %d not normalized", ErrBadDecoderState, c)
		}
		for c2, v := range row[:c] {
			if v != 0 {
				return fmt.Errorf("%w: row %d has an entry at column %d, left of its pivot", ErrBadDecoderState, c, c2)
			}
		}
		for _, c2 := range pivots {
			if c2 != c && row[c2] != 0 {
				return fmt.Errorf("%w: pivot %d not eliminated from row %d", ErrBadDecoderState, c2, c)
			}
		}
		for _, v := range row[:n] {
			binaryRows = binaryRows && v <= 1
		}
		rows[c] = row
	}

	d.releaseScratch()
	*d = Decoder{
		params:      p,
		segID:       binary.BigEndian.Uint32(data[16:]),
		haveSeg:     data[20]&1 != 0,
		rank:        rank,
		received:    int(binary.BigEndian.Uint32(data[25:])),
		dependent:   int(binary.BigEndian.Uint32(data[29:])),
		xorOnly:     binaryRows,
		rowForPivot: rows,
	}
	switch {
	case !binaryRows:
		d.enterDense(rows, func(c int) []byte { return rows[c][n:] })
	case rank > 0:
		// The GF(2) path owns its rows: C into the slab, ascending pivot
		// order, and each payload into the window of its pivot.
		d.output()
		for i, c := range pivots {
			copy(d.window(c), rows[c][n:])
			rows[c] = d.stageXorRow(i, rows[c][:n])
			if !unitRow(rows[c], c) {
				d.mixed = append(d.mixed, c)
			}
		}
		if rank == n {
			d.finishXor()
		}
	}
	return nil
}
