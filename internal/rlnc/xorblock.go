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

// ErrBadBitmask reports a bitmask with bits set beyond the block count.
var ErrBadBitmask = errors.New("rlnc: xor-block bitmask has bits beyond block count")

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
func (b *CodedBlock) IsBinary() bool { return isBinary(b.Coeffs) }

func isBinary(c []byte) bool {
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

// NarrowWire is how an XNC2 record is made: it turns rec, an XNC1 record of
// shape p laid out by PutWireHeader with its row filled, into the XNC2 record
// of the same block when every coefficient is 0 or 1. In place, it writes the
// bitmask over the coefficients, moves the payload left behind it and changes
// the magic, and returns the XorWireSize(p)-byte prefix of rec that now holds
// the record, for the caller to seal (and to re-prefix, if it framed rec). A
// row with a coefficient above 1 is left as it is and reported false: it
// travels as XNC1.
func NarrowWire(rec []byte, p Params) (narrowed []byte, ok bool) {
	n, m := p.BlockCount, BitmaskLen(p.BlockCount)
	row := rec[wireHeaderLen : len(rec)-wireTrailerLen]
	if !isBinary(row[:n]) {
		return rec, false
	}
	// Mask byte j is gathered from coefficients 8j… and stored at j ≤ 8j, so
	// it overwrites only coefficients already gathered.
	for j := range m {
		var bits byte
		for i, c := range row[8*j : min(8*j+8, n)] {
			bits |= c << i
		}
		row[j] = bits
	}
	copy(row[m:], row[n:])
	copy(rec, xorWireMagic)
	return rec[:XorWireSize(p)], true
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
