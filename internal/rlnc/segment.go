package rlnc

import (
	"bytes"
	"fmt"
)

// Segment is one generation of source data: BlockCount blocks of BlockSize
// bytes stored contiguously (the paper's "media segment").
type Segment struct {
	id     uint32
	params Params
	data   []byte   // length params.SegmentSize()
	rows   [][]byte // per-block views into data, built by the constructors
}

// NewSegment returns a zero-filled segment.
func NewSegment(id uint32, p Params) (*Segment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newSegment(id, p), nil
}

// newSegment is NewSegment for parameters already validated.
func newSegment(id uint32, p Params) *Segment {
	return segmentView(id, p, make([]byte, p.SegmentSize()))
}

// segmentView returns a segment whose storage is data, SegmentSize bytes the
// caller owns: a decoder's output window, or a whole segment Split cuts from
// the caller's data.
func segmentView(id uint32, p Params, data []byte) *Segment {
	s := &Segment{id: id, params: p, data: data}
	s.blockRows()
	return s
}

// SegmentFromData builds a segment from up to SegmentSize bytes, copying the
// input and zero-padding the tail. Length recovery across padding is the
// caller's concern (see Object in generation.go).
func SegmentFromData(id uint32, p Params, data []byte) (*Segment, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(data) > p.SegmentSize() {
		return nil, fmt.Errorf("%w: %d bytes exceed segment size %d", ErrDataTooLarge, len(data), p.SegmentSize())
	}
	s := newSegment(id, p)
	copy(s.data, data)
	return s, nil
}

// ID returns the segment identifier carried by every coded block.
func (s *Segment) ID() uint32 { return s.id }

// Params returns the coding configuration.
func (s *Segment) Params() Params { return s.params }

// Block returns source block i as a slice aliasing the segment storage.
func (s *Segment) Block(i int) []byte {
	k := s.params.BlockSize
	return s.data[i*k : (i+1)*k : (i+1)*k]
}

// Blocks returns all source blocks as aliasing slices. The slice is built
// once at construction time (the encode hot path calls this per coded
// block), so it is safe to call concurrently; callers must not modify the
// slice itself, only the block contents.
func (s *Segment) Blocks() [][]byte {
	if s.rows != nil {
		return s.rows
	}
	rows := make([][]byte, s.params.BlockCount)
	for i := range rows {
		rows[i] = s.Block(i)
	}
	return rows
}

// blockRows builds the cached per-block views; called by the constructors.
func (s *Segment) blockRows() {
	s.rows = make([][]byte, s.params.BlockCount)
	for i := range s.rows {
		s.rows[i] = s.Block(i)
	}
}

// Data returns the full contiguous payload (aliased, not copied).
func (s *Segment) Data() []byte { return s.data }

// Equal reports whether two segments carry identical parameters and bytes.
func (s *Segment) Equal(o *Segment) bool {
	return s.id == o.id && s.params == o.params && bytes.Equal(s.data, o.data)
}
