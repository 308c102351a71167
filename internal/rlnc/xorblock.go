package rlnc

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// GF(2) (XOR-repair) wire encoding: the systematic fast path's packet shape.
// When every coefficient is 0 or 1 the vector is a bitmask, so the n-byte
// coefficient header of a dense block shrinks to ceil(n/8) bits and the
// payload is a pure XOR of the selected source blocks — no GF(2^8) arithmetic
// anywhere between encoder and decoder ("Balanced XOR-ed Coding", PAPERS.md).
//
// Wire format (all integers big-endian):
//
//	offset         size       field
//	0              4          magic "XNC2"
//	4              4          segment ID
//	8              4          block count n
//	12             4          block size k
//	16             ceil(n/8)  coefficient bitmask (bit i ⇒ byte i/8, 1<<(i%8),
//	                          the pivot-bitmap convention of decoderstate.go)
//	16+m           k          coded payload
//	16+m+k         4          CRC-32 (IEEE) over everything above
//
// Bits at positions ≥ n in the final mask byte must be zero: a checksummed
// record with stray trailing bits is rejected as hostile (ErrBadBitmask), so
// two distinct wire records can never alias one logical block.
const xorWireMagic = "XNC2"

// Errors of the GF(2) wire encoding.
var (
	// ErrNotBinary reports a MarshalBinaryXor call on a block whose
	// coefficients are not all 0 or 1.
	ErrNotBinary = errors.New("rlnc: coefficients are not GF(2)")
	// ErrBadBitmask reports a bitmask with bits set beyond the block count.
	ErrBadBitmask = errors.New("rlnc: xor-block bitmask has bits beyond block count")
)

// BitmaskLen returns ceil(n/8), the wire size of a GF(2) coefficient vector.
func BitmaskLen(n int) int { return (n + 7) / 8 }

// XorWireSize returns the marshaled length of a GF(2) coded block for p.
func XorWireSize(p Params) int {
	return wireHeaderLen + BitmaskLen(p.BlockCount) + p.BlockSize + wireTrailerLen
}

// IsBinary reports whether every coefficient is 0 or 1, i.e. whether the
// block is eligible for the GF(2) wire encoding and the decoder's XOR-only
// elimination fast path. Systematic source blocks (unit vectors) and XOR
// repair blocks are binary; dense-tail blocks are not.
func (b *CodedBlock) IsBinary() bool {
	c := b.Coeffs
	for ; len(c) >= 8; c = c[8:] {
		if binary.LittleEndian.Uint64(c)&0xFEFEFEFEFEFEFEFE != 0 {
			return false
		}
	}
	for _, v := range c {
		if v > 1 {
			return false
		}
	}
	return true
}

// MarshalBinaryXor encodes the block in the GF(2) wire format above. It
// fails with ErrNotBinary when any coefficient exceeds 1 — the caller
// chooses the encoding per block (see netio's systematic mode).
func (b *CodedBlock) MarshalBinaryXor() ([]byte, error) {
	if err := b.Params().Validate(); err != nil {
		return nil, err
	}
	if !b.IsBinary() {
		return nil, ErrNotBinary
	}
	out := make([]byte, XorWireSize(b.Params()))
	row := PutWireHeader(out, b.SegmentID, b.Params())
	copy(out, xorWireMagic) // the XNC1 header but for its magic
	mask := row[:BitmaskLen(len(b.Coeffs))]
	for i, c := range b.Coeffs {
		if c != 0 {
			mask[i/8] |= 1 << (i % 8)
		}
	}
	copy(row[len(mask):], b.Payload)
	SealWire(out)
	return out, nil
}

// UnmarshalBinaryXor decodes a GF(2) coded block, validating magic, lengths,
// checksum, and the trailing-bit invariant, expanding the bitmask back into
// a byte coefficient vector so the decoded block is interchangeable with a
// dense one.
func (b *CodedBlock) UnmarshalBinaryXor(data []byte) error {
	seg, p, row, err := openWire(data, xorWireMagic)
	if err != nil {
		return err
	}
	n, m := p.BlockCount, BitmaskLen(p.BlockCount)
	if cap(b.Coeffs) < n {
		b.Coeffs = make([]byte, n)
	}
	if err := expandBitmask(b.Coeffs[:n], row[:m]); err != nil {
		return err
	}
	b.SegmentID = seg
	b.Coeffs = b.Coeffs[:n]
	b.Payload = append(b.Payload[:0], row[m:]...)
	return nil
}

// expandBitmask writes the 0/1 coefficient vector a GF(2) bitmask denotes into
// coeffs, one byte per bit, after refusing a mask with bits set beyond
// len(coeffs). Whole mask bytes expand eight coefficients at a time.
func expandBitmask(coeffs, mask []byte) error {
	n, m := len(coeffs), len(mask)
	if n%8 != 0 && mask[m-1]>>(n%8) != 0 {
		return fmt.Errorf("%w: %d blocks, trailing byte %#x", ErrBadBitmask, n, mask[m-1])
	}
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(coeffs[i:], maskBytes[mask[i/8]])
	}
	for ; i < n; i++ {
		coeffs[i] = (mask[i/8] >> (i % 8)) & 1
	}
	return nil
}

// maskBytes[b] is mask byte b expanded: byte i of the little-endian word is
// bit i of b.
var maskBytes = func() (t [256]uint64) {
	for b := range t {
		for i := range 8 {
			t[b] |= uint64(b>>i&1) << (8 * i)
		}
	}
	return t
}()

// UnmarshalRecord decodes either wire encoding, dispatching on the magic:
// "XNC1" dense, "XNC2" GF(2). It is the record parser of netio's systematic
// sessions, where both encodings interleave on one stream.
func (b *CodedBlock) UnmarshalRecord(data []byte) error {
	if len(data) >= 4 && string(data[:4]) == xorWireMagic {
		return b.UnmarshalBinaryXor(data)
	}
	return b.UnmarshalBinary(data)
}
