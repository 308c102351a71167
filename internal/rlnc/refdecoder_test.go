package rlnc

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"extremenc/internal/gf256"
)

// refDecoder is the progressive Gauss–Jordan decoder the two-stage Decoder
// replaced: every arrival is reduced as one n+k byte [C | x] row and
// back-substituted into every stored row at once, so the rows are in reduced
// row-echelon form — and the payload columns hold whatever is decodable — at
// every rank. It drags k-byte payloads through about 2·rank row operations
// per arrival, which is why it left the product path; it stays here as the
// differential oracle (verdicts, ranks, state blobs and segments of Decoder
// must match it arrival for arrival) and as BenchmarkDecodeLadder's reference
// rung.
type refDecoder struct {
	params  Params
	segID   uint32
	haveSeg bool

	rowForPivot [][]byte
	rank        int
	received    int
	dependent   int
}

func newRefDecoder(p Params) *refDecoder {
	return &refDecoder{params: p, rowForPivot: make([][]byte, p.BlockCount)}
}

func (d *refDecoder) Ready() bool { return d.rank == d.params.BlockCount }

func (d *refDecoder) AddBlock(b *CodedBlock) (innovative bool, err error) {
	if err := b.Validate(d.params); err != nil {
		return false, err
	}
	if d.haveSeg && b.SegmentID != d.segID {
		return false, wrongSegmentError(d.segID, b.SegmentID)
	}
	d.segID, d.haveSeg = b.SegmentID, true
	d.received++

	n, k := d.params.BlockCount, d.params.BlockSize
	row := make([]byte, n+k)
	copy(row, b.Coeffs)
	copy(row[n:], b.Payload)

	// Forward-reduce against every existing pivot; the sweep continues past
	// the row's own pivot so out-of-order pivots (sparse vectors) are
	// eliminated too.
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
		d.dependent++
		return false, nil
	}
	if pv := row[pivot]; pv != 1 {
		gf256.ScaleSlice(row, gf256.Inv(pv))
	}
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

func (d *refDecoder) Segment() (*Segment, error) {
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

// MarshalBinary writes the XNCD progress blob straight from the stored rows,
// which already are the reduced rows the format carries.
func (d *refDecoder) MarshalBinary() []byte {
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
	off := decoderStateFixed + bitmapLen
	for c := 0; c < n; c++ {
		row := d.rowForPivot[c]
		if row == nil {
			continue
		}
		bitmap[c/8] |= 1 << (c % 8)
		copy(out[off:], row)
		off += n + k
	}
	binary.BigEndian.PutUint32(out[off:], crc32.ChecksumIEEE(out[:off]))
	return out
}
