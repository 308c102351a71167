package rlnc

import (
	"errors"
	"fmt"
	"sort"
)

// ErrMissingSegment reports a gap in a segment set during reassembly.
var ErrMissingSegment = errors.New("rlnc: missing segment")

// Object is a large payload split into consecutive generations (segments)
// for coding — the paper's content-distribution unit ("data to be
// disseminated is divided into n blocks" per segment; a file or stream is a
// sequence of such segments). The original length is retained so padding in
// the final segment can be stripped on reassembly.
type Object struct {
	Length   int
	Params   Params
	Segments []*Segment
}

// Split divides data into segments of p.SegmentSize() bytes. Segment IDs are
// assigned sequentially from 0. Every whole segment is a view of data, cut
// so that nothing past it is reachable; only a short final segment is a
// zero-padded copy. data is retained and read for as long as the segments
// are used, so the caller must not modify it meanwhile.
func Split(data []byte, p Params) (*Object, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	segSize := p.SegmentSize()
	count := max(1, (len(data)+segSize-1)/segSize)
	obj := &Object{Length: len(data), Params: p, Segments: make([]*Segment, count)}
	for i := range obj.Segments {
		lo := i * segSize
		if hi := lo + segSize; hi <= len(data) {
			obj.Segments[i] = segmentView(uint32(i), p, data[lo:hi:hi])
			continue
		}
		seg := newSegment(uint32(i), p)
		copy(seg.data, data[lo:])
		obj.Segments[i] = seg
	}
	return obj, nil
}

// Reassemble concatenates the object's segments and strips the padding.
func (o *Object) Reassemble() ([]byte, error) {
	return ReassembleSegments(o.Segments, o.Length, o.Params)
}

// ReassembleSegments rebuilds a payload of the given length from decoded
// segments (in any order; IDs establish placement). It fails if a needed
// segment is absent or parameters disagree.
func ReassembleSegments(segs []*Segment, length int, p Params) ([]byte, error) {
	segSize := p.SegmentSize()
	need := (length + segSize - 1) / segSize
	if need == 0 {
		need = 1
	}
	byID := make(map[uint32]*Segment, len(segs))
	for _, s := range segs {
		if s.Params() != p {
			return nil, fmt.Errorf("%w: segment %d has params %v, want %v", ErrParamsMismatch, s.ID(), s.Params(), p)
		}
		byID[s.ID()] = s
	}
	out := make([]byte, 0, length)
	ids := make([]int, 0, need)
	for i := 0; i < need; i++ {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	for _, id := range ids {
		s, ok := byID[uint32(id)]
		if !ok {
			return nil, fmt.Errorf("%w: %d", ErrMissingSegment, id)
		}
		remaining := length - len(out)
		out = append(out, s.Data()[:min(segSize, remaining)]...)
	}
	return out, nil
}
