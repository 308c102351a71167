package rlnc

import (
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Wire format of a coded block (all integers big-endian):
//
//	offset  size  field
//	0       4     magic "XNC1"
//	4       4     segment ID
//	8       4     block count n
//	12      4     block size k
//	16      n     coefficient vector
//	16+n    k     coded payload
//	16+n+k  4     CRC-32 (IEEE) over everything above
const (
	wireMagic      = "XNC1"
	wireHeaderLen  = 16
	wireTrailerLen = 4
)

// Errors returned by UnmarshalBinary.
var (
	ErrBadMagic    = errors.New("rlnc: bad coded-block magic")
	ErrBadChecksum = errors.New("rlnc: coded-block checksum mismatch")
	ErrTruncated   = errors.New("rlnc: truncated coded block")
)

// CodedBlock is one network-coded packet: the coefficient vector c and the
// payload x = Σ c_i·b_i over the source blocks of one segment (Eq. 1).
type CodedBlock struct {
	SegmentID uint32
	Coeffs    []byte
	Payload   []byte
}

var (
	_ encoding.BinaryMarshaler   = (*CodedBlock)(nil)
	_ encoding.BinaryUnmarshaler = (*CodedBlock)(nil)
)

// Params returns the (n, k) configuration implied by the block's shape.
func (b *CodedBlock) Params() Params {
	return Params{BlockCount: len(b.Coeffs), BlockSize: len(b.Payload)}
}

// Validate checks the block against an expected configuration.
func (b *CodedBlock) Validate(p Params) error {
	if len(b.Coeffs) != p.BlockCount {
		return fmt.Errorf("%w: %d coefficients, want %d", ErrBlockShape, len(b.Coeffs), p.BlockCount)
	}
	if len(b.Payload) != p.BlockSize {
		return fmt.Errorf("%w: %d payload bytes, want %d", ErrBlockShape, len(b.Payload), p.BlockSize)
	}
	return nil
}

// Clone returns a deep copy.
func (b *CodedBlock) Clone() *CodedBlock {
	return &CodedBlock{
		SegmentID: b.SegmentID,
		Coeffs:    append([]byte(nil), b.Coeffs...),
		Payload:   append([]byte(nil), b.Payload...),
	}
}

// WireSize returns the marshaled length of the block.
func (b *CodedBlock) WireSize() int { return WireSize(b.Params()) }

// WireSize returns the marshaled length of a dense coded block for p.
func WireSize(p Params) int {
	return wireHeaderLen + p.BlockCount + p.BlockSize + wireTrailerLen
}

// PutWireHeader writes the 16-byte header of a segment-segID record at p into
// rec, which must be WireSize(p) long, and returns the record's [C | x] row:
// its n coefficient bytes and k payload bytes, contiguous. A producer fills
// the row in place — an encoder multiplies straight into it — and then calls
// SealWire; nothing is staged anywhere else. MarshalBinaryXor lays XNC2
// records out with it too: the same header but for the magic, a bitmask for C.
func PutWireHeader(rec []byte, segID uint32, p Params) (row []byte) {
	copy(rec, wireMagic)
	binary.BigEndian.PutUint32(rec[4:], segID)
	binary.BigEndian.PutUint32(rec[8:], uint32(p.BlockCount))
	binary.BigEndian.PutUint32(rec[12:], uint32(p.BlockSize))
	return rec[wireHeaderLen : len(rec)-wireTrailerLen]
}

// SealWire writes the trailing CRC of a record laid out by PutWireHeader, over
// everything before it.
func SealWire(rec []byte) {
	body := rec[:len(rec)-wireTrailerLen]
	binary.BigEndian.PutUint32(rec[len(body):], crc32.ChecksumIEEE(body))
}

// MarshalBinary encodes the block in the wire format above.
func (b *CodedBlock) MarshalBinary() ([]byte, error) {
	if err := b.Params().Validate(); err != nil {
		return nil, err
	}
	out := make([]byte, b.WireSize())
	row := PutWireHeader(out, b.SegmentID, b.Params())
	copy(row[copy(row, b.Coeffs):], b.Payload)
	SealWire(out)
	return out, nil
}

// UnmarshalBinary decodes a block from the wire format, validating magic,
// lengths and checksum.
func (b *CodedBlock) UnmarshalBinary(data []byte) error {
	seg, p, row, err := openWire(data, wireMagic)
	if err != nil {
		return err
	}
	b.SegmentID = seg
	b.Coeffs = append(b.Coeffs[:0], row[:p.BlockCount]...)
	b.Payload = append(b.Payload[:0], row[p.BlockCount:]...)
	return nil
}

// RecordFormat is what reading one stream's records takes: the shape every
// record has and, on a stream of XNC3 counter records, the key their
// coefficient vectors are regenerated under.
type RecordFormat struct {
	Params Params
	// Counter marks a stream of XNC3 records under Key, and of those only;
	// any other stream carries XNC1 and XNC2 records.
	Counter bool
	Key     uint64
}

// ParseView parses one record of a stream of format f into b without copying
// its payload: b.Payload aliases data and is valid only as long as data is —
// a reader parses a record where it was read, hands the block on and moves
// past the record. The coefficient vector is copied — from an XNC1 record,
// expanded from an XNC2 bitmask, or regenerated from an XNC3 index — into
// b.Coeffs, reusing its capacity, so nothing else of b aliases data and a
// reader that keeps one block allocates nothing per record. The checks are the
// unmarshalers': magic, lengths, checksum, the bitmask's trailing bits, and a
// checksummed record of another shape than f.Params is ErrBlockShape. A block
// ParseView filled must not be handed to an unmarshaler, which would copy into
// the aliased payload.
func (b *CodedBlock) ParseView(data []byte, f RecordFormat) error {
	magic := wireMagic
	switch {
	case f.Counter:
		magic = counterWireMagic
	case len(data) >= 4 && string(data[:4]) == xorWireMagic:
		magic = xorWireMagic
	}
	seg, p, row, err := openWire(data, magic)
	if err != nil {
		return err
	}
	if p != f.Params {
		return fmt.Errorf("%w: record %v, want %v", ErrBlockShape, p, f.Params)
	}
	n := p.BlockCount
	if cap(b.Coeffs) < n {
		b.Coeffs = make([]byte, n)
	}
	coeffs := b.Coeffs[:n]
	switch magic {
	case counterWireMagic:
		CounterCoeffs(coeffs, f.Key, seg, binary.BigEndian.Uint32(row))
		row = row[counterIndexLen:]
	case xorWireMagic:
		m := BitmaskLen(n)
		if err := expandBitmask(coeffs, row[:m]); err != nil {
			return err
		}
		row = row[m:]
	default:
		row = row[copy(coeffs, row):]
	}
	b.SegmentID, b.Coeffs, b.Payload = seg, coeffs, row[:len(row):len(row)]
	return nil
}

// openWire checks what the XNC1, XNC2 and XNC3 records share — magic, header
// shape, total length and checksum — and returns the record's segment ID,
// shape and [C | x] row, C being n coefficient bytes (XNC1), a ceil(n/8)-byte
// bitmask (XNC2) or a 4-byte record index (XNC3).
func openWire(data []byte, magic string) (seg uint32, p Params, row []byte, err error) {
	if len(data) < wireHeaderLen+wireTrailerLen {
		return 0, p, nil, ErrTruncated
	}
	if string(data[:4]) != magic {
		return 0, p, nil, ErrBadMagic
	}
	p = Params{
		BlockCount: int(binary.BigEndian.Uint32(data[8:])),
		BlockSize:  int(binary.BigEndian.Uint32(data[12:])),
	}
	if err := p.Validate(); err != nil {
		return 0, p, nil, err
	}
	c := p.BlockCount
	switch magic {
	case xorWireMagic:
		c = BitmaskLen(c)
	case counterWireMagic:
		c = counterIndexLen
	}
	if want := wireHeaderLen + c + p.BlockSize + wireTrailerLen; len(data) != want {
		return 0, p, nil, fmt.Errorf("%w: have %d bytes, want %d", ErrTruncated, len(data), want)
	}
	body := data[:len(data)-wireTrailerLen]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[len(body):]) {
		return 0, p, nil, ErrBadChecksum
	}
	return binary.BigEndian.Uint32(data[4:]), p, body[wireHeaderLen:], nil
}
