package rlnc

import (
	"errors"
	"fmt"

	"extremenc/internal/obs"
)

// ErrRankDeficient reports that a batch of coded blocks does not span the
// segment.
var ErrRankDeficient = errors.New("rlnc: coded blocks are rank deficient")

// stageTwoStage times one whole-segment offline decode. Free when no obs sink
// is installed.
var stageTwoStage = obs.StageOf("rlnc.decode_two_stage")

// DecodeTwoStage recovers one segment from coded blocks held all at once —
// the offline shape of the paper's multi-segment scheme (Sec. 5.2). It is
// Decoder fed in arrival order, which is the two-stage pipeline: invert the
// coefficients of the first spanning subset on [C | I], then one multiply
// b = C⁻¹·x. It fails with ErrRankDeficient when the blocks do not span the
// segment; extra blocks beyond rank n cost nothing, so over-collection is
// harmless.
func DecodeTwoStage(p Params, blocks []*CodedBlock) (*Segment, error) {
	defer stageTwoStage.Start().End()
	d, err := NewDecoder(p)
	if err != nil {
		return nil, err
	}
	if _, err := d.AddBlocks(blocks); err != nil {
		return nil, err
	}
	if !d.Ready() {
		d.releaseScratch()
		return nil, fmt.Errorf("%w: rank %d of %d from %d blocks",
			ErrRankDeficient, d.Rank(), p.BlockCount, len(blocks))
	}
	return d.Segment()
}
