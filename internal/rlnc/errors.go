package rlnc

import "errors"

// Sentinel errors for every invalid-input path in the codec. Constructors
// and entry points wrap these with fmt.Errorf("%w: detail"), so callers
// branch with errors.Is instead of matching message strings; the extremenc
// facade re-exports them. ErrInvalidParams (params.go), ErrNotReady and
// ErrWrongSegment (decoder.go) and ErrRankDeficient (batch.go) predate this
// file and live next to their types.
var (
	// ErrWorkerCount reports a non-positive worker count.
	ErrWorkerCount = errors.New("rlnc: worker count must be positive")
	// ErrEncodeMode reports an unknown parallel-encode partitioning mode.
	ErrEncodeMode = errors.New("rlnc: unknown encode mode")
	// ErrBlockCountInvalid reports a non-positive coded-block request.
	ErrBlockCountInvalid = errors.New("rlnc: block count must be positive")
	// ErrCoeffsMismatch reports a coefficient vector whose length does not
	// match the configured BlockCount.
	ErrCoeffsMismatch = errors.New("rlnc: coefficient count mismatch")
	// ErrBlockShape reports a coded block whose coefficient or payload
	// length does not match the coding parameters.
	ErrBlockShape = errors.New("rlnc: coded block shape mismatch")
	// ErrBatchShape reports a batch-encode call whose destination,
	// coefficient and segment shapes disagree.
	ErrBatchShape = errors.New("rlnc: batch shape mismatch")
	// ErrNoBlocks reports a recombination request with no input blocks.
	ErrNoBlocks = errors.New("rlnc: no input blocks")
	// ErrNoSeed reports an Emit call on a recoder built without WithSeed.
	ErrNoSeed = errors.New("rlnc: recoder has no seeded random source")
	// ErrDataTooLarge reports payload bytes that exceed the segment size.
	ErrDataTooLarge = errors.New("rlnc: data exceeds segment size")
	// ErrParamsMismatch reports segments whose coding parameters disagree
	// with the reassembly configuration.
	ErrParamsMismatch = errors.New("rlnc: segment params mismatch")
)
