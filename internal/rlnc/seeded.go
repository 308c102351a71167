package rlnc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
)

// Seeded coded blocks: a practical-deployment optimization the coefficient
// overhead analysis of Sec. 4.3 motivates. A dense coefficient vector costs
// n bytes per packet (n/k relative overhead — 12.5% at n=512, k=4096). When
// the *source* generates the block, the receiver can regenerate the whole
// vector from the (generator, seed) pair, shrinking the header to 8 bytes.
// Recoded blocks cannot stay seeded (the recombination is data-dependent),
// so SeededBlock converts to a plain CodedBlock for recoding.

// seededWireMagic distinguishes seeded blocks from plain ones ("XNS1").
const seededWireMagic = "XNS1"

// seededWireLen: magic(4) + segmentID(4) + n(4) + k(4) + seed(8) + payload + crc(4).
const (
	seededHeaderLen  = 24
	seededTrailerLen = 4
)

// ErrNotSeeded reports that bytes do not hold a seeded block.
var ErrNotSeeded = errors.New("rlnc: not a seeded coded block")

// SeededBlock is a coded block whose coefficient vector is represented by
// the PRNG seed that generated it.
type SeededBlock struct {
	SegmentID  uint32
	BlockCount int
	Seed       int64
	Payload    []byte
}

// CoeffsFromSeed regenerates the dense coefficient vector a seed denotes:
// n bytes uniform on [1, 255], matching Encoder.NextCoeffs at density 1.
func CoeffsFromSeed(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	coeffs := make([]byte, n)
	DrawCoeffs(coeffs, rng)
	return coeffs
}

// NextSeededBlock draws a fresh seed from the encoder's stream and returns
// the corresponding seeded block.
func (e *Encoder) NextSeededBlock() (*SeededBlock, error) {
	if e.density < 1 {
		return nil, fmt.Errorf("%w: density %.2f", ErrSeededDense, e.density)
	}
	seed := e.rng.Int63()
	p := e.seg.params
	coeffs := CoeffsFromSeed(seed, p.BlockCount)
	payload := make([]byte, p.BlockSize)
	EncodeInto(payload, e.seg, coeffs)
	return &SeededBlock{
		SegmentID:  e.seg.id,
		BlockCount: p.BlockCount,
		Seed:       seed,
		Payload:    payload,
	}, nil
}

// Expand converts the seeded block into a plain CodedBlock (regenerating
// the coefficient vector), as needed for decoding or recoding.
func (b *SeededBlock) Expand() *CodedBlock {
	return &CodedBlock{
		SegmentID: b.SegmentID,
		Coeffs:    CoeffsFromSeed(b.Seed, b.BlockCount),
		Payload:   append([]byte(nil), b.Payload...),
	}
}

// WireSize returns the marshaled length.
func (b *SeededBlock) WireSize() int {
	return seededHeaderLen + len(b.Payload) + seededTrailerLen
}

// HeaderOverhead returns the wire bytes spent on coefficients relative to a
// plain coded block: 8 seed bytes instead of BlockCount.
func (b *SeededBlock) HeaderOverhead() (seeded, plain int) {
	return 8, b.BlockCount
}

// MarshalBinary encodes the seeded block.
func (b *SeededBlock) MarshalBinary() ([]byte, error) {
	p := Params{BlockCount: b.BlockCount, BlockSize: len(b.Payload)}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make([]byte, b.WireSize())
	copy(out, seededWireMagic)
	binary.BigEndian.PutUint32(out[4:], b.SegmentID)
	binary.BigEndian.PutUint32(out[8:], uint32(b.BlockCount))
	binary.BigEndian.PutUint32(out[12:], uint32(len(b.Payload)))
	binary.BigEndian.PutUint64(out[16:], uint64(b.Seed))
	copy(out[seededHeaderLen:], b.Payload)
	sum := crc32.ChecksumIEEE(out[:len(out)-seededTrailerLen])
	binary.BigEndian.PutUint32(out[len(out)-seededTrailerLen:], sum)
	return out, nil
}

// UnmarshalBinary decodes a seeded block, validating magic, lengths and
// checksum.
func (b *SeededBlock) UnmarshalBinary(data []byte) error {
	if len(data) < seededHeaderLen+seededTrailerLen {
		return ErrTruncated
	}
	if string(data[:4]) != seededWireMagic {
		return ErrNotSeeded
	}
	n := int(binary.BigEndian.Uint32(data[8:]))
	k := int(binary.BigEndian.Uint32(data[12:]))
	p := Params{BlockCount: n, BlockSize: k}
	if err := p.Validate(); err != nil {
		return err
	}
	want := seededHeaderLen + k + seededTrailerLen
	if len(data) != want {
		return fmt.Errorf("%w: have %d bytes, want %d", ErrTruncated, len(data), want)
	}
	sum := crc32.ChecksumIEEE(data[:len(data)-seededTrailerLen])
	if sum != binary.BigEndian.Uint32(data[len(data)-seededTrailerLen:]) {
		return ErrBadChecksum
	}
	b.SegmentID = binary.BigEndian.Uint32(data[4:])
	b.BlockCount = n
	b.Seed = int64(binary.BigEndian.Uint64(data[16:]))
	b.Payload = append(b.Payload[:0], data[seededHeaderLen:seededHeaderLen+k]...)
	return nil
}
