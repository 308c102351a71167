// Package rlnc implements random linear network coding over GF(2^8): the
// codec the paper accelerates. Data is divided into segments (generations)
// of n blocks of k bytes each; coded blocks carry a random coefficient
// vector and the corresponding linear combination of the source blocks
// (paper Sec. 3, Eq. 1). Decoding reduces each arrival's coefficients as it
// comes (Eq. 2), which detects linearly dependent arrivals for free, and
// recovers the payload the way the two-stage multi-segment pipeline of
// Sec. 5.2 does: invert the coefficients, then one dense multiply. Recoding — the defining capability of network coding —
// produces fresh combinations from received coded blocks without decoding.
//
// This package is the real, host-native implementation; the GPU and CPU
// simulators in internal/gpu and internal/cpusim are validated against it.
package rlnc

import (
	"errors"
	"fmt"
)

// Limits for wire-format sanity checking: the paper's evaluated range (n up
// to 1024, k up to 32 KiB), which is every shape the stack serves. Whatever
// a peer's header or record declares is sized by them, so they bound what a
// few checksummed bytes can make a reader allocate: a record buffer of at
// most about 33 KiB where limits of 2^16 and 2^26 let a 60-byte header pin
// 64 MiB.
const (
	MaxBlockCount = 1024
	MaxBlockSize  = 32 << 10
)

// ErrInvalidParams reports an unusable coding configuration.
var ErrInvalidParams = errors.New("rlnc: invalid coding parameters")

// Params describes a network coding configuration (n, k): BlockCount source
// blocks per segment, each BlockSize bytes.
type Params struct {
	BlockCount int // n — blocks per segment
	BlockSize  int // k — bytes per block
}

// Validate checks that the configuration is usable.
func (p Params) Validate() error {
	if p.BlockCount <= 0 || p.BlockCount > MaxBlockCount {
		return fmt.Errorf("%w: block count %d out of (0,%d]", ErrInvalidParams, p.BlockCount, MaxBlockCount)
	}
	if p.BlockSize <= 0 || p.BlockSize > MaxBlockSize {
		return fmt.Errorf("%w: block size %d out of (0,%d]", ErrInvalidParams, p.BlockSize, MaxBlockSize)
	}
	return nil
}

// SegmentSize returns n·k, the number of payload bytes in one segment.
func (p Params) SegmentSize() int { return p.BlockCount * p.BlockSize }

func (p Params) String() string {
	return fmt.Sprintf("(n=%d, k=%d)", p.BlockCount, p.BlockSize)
}
