package rlnc

import (
	"math/rand"

	"extremenc/internal/gf256"
)

// SystematicEncoder is the first-class systematic + XOR-repair encoder mode:
// the wire-speed path for lightly-lossy links. Each cycle emits, in order,
//
//  1. every source block verbatim (unit coefficient vectors) — in the
//     loss-free case receivers decode with zero elimination work;
//  2. XorRepair GF(2) repair blocks, whose coefficient vector is a random
//     bitmask and whose payload is a pure XOR of the selected source blocks —
//     these repair typical loss patterns with no GF(2^8) arithmetic on
//     either side ("Balanced XOR-ed Coding", PAPERS.md);
//  3. DenseTail dense GF(2^8) blocks for the final ranks, where a random
//     GF(2) combination is dependent with probability ≈ 1/2 per missing rank
//     but a dense one only ≈ 1/256 ("Linear-Complexity Overhead-Optimized
//     RLNC", PAPERS.md).
//
// then restarts: a receiver that joins a broadcast late, with no back channel
// to say so, still sees a full sweep within one cycle. Where the receiver can
// be handed the sweep some other way, RepairBlock runs the cycle without it: netio's
// systematic server writes each session its own sweep from a table of
// pre-framed source blocks and draws only repair from this encoder, and only
// for the sessions that ask. The progressive Decoder consumes all three phases
// transparently and stays on its XOR-only elimination fast path until the
// first dense block arrives.
type SystematicEncoder struct {
	enc    *Encoder
	next   int // next source block to emit verbatim
	repair int // repair blocks emitted this cycle (XOR + dense)

	xorRepair int // GF(2) repair blocks per cycle
	denseTail int // dense GF(2^8) blocks per cycle

	// Reusable emit storage: Block returns a view assembled from these, so
	// steady-state emission allocates nothing.
	blk     CodedBlock
	coeffs  []byte
	payload []byte
}

// SystematicOption configures a SystematicEncoder.
type SystematicOption func(*SystematicEncoder)

// WithXorRepair sets how many GF(2) XOR repair blocks each cycle emits after
// the systematic sweep (default max(4, n/8)). More XOR repair tolerates
// higher loss without GF(2^8) arithmetic; at zero the encoder goes straight
// to dense blocks.
func WithXorRepair(r int) SystematicOption {
	return func(s *SystematicEncoder) { s.xorRepair = max(r, 0) }
}

// WithDenseTail sets how many dense GF(2^8) blocks close each cycle (default
// 2). This is the dense-fallback rank threshold: the number of missing ranks
// the cycle can close with near-certain innovation where GF(2) combinations
// would coin-flip.
func WithDenseTail(t int) SystematicOption {
	return func(s *SystematicEncoder) { s.denseTail = max(t, 0) }
}

// NewSystematicEncoder wraps seg in a systematic encoder driven by rng.
func NewSystematicEncoder(seg *Segment, rng *rand.Rand, opts ...SystematicOption) *SystematicEncoder {
	p := seg.params
	s := &SystematicEncoder{
		enc:       NewEncoder(seg, rng),
		xorRepair: max(4, p.BlockCount/8),
		denseTail: 2,
		coeffs:    make([]byte, p.BlockCount),
		payload:   make([]byte, p.BlockSize),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// SystematicRemaining reports how many verbatim blocks are still to come in
// the current cycle. A completed cycle counts as a fresh one: the next Block
// call rolls into its systematic sweep.
func (s *SystematicEncoder) SystematicRemaining() int {
	n := s.enc.seg.params.BlockCount
	if s.next >= n {
		if s.repair >= s.xorRepair+s.denseTail {
			return n
		}
		return 0
	}
	return n - s.next
}

// XorRepair returns the per-cycle GF(2) repair block count.
func (s *SystematicEncoder) XorRepair() int { return s.xorRepair }

// DenseTail returns the per-cycle dense-fallback block count.
func (s *SystematicEncoder) DenseTail() int { return s.denseTail }

// SetSchedule retunes the per-cycle repair schedule mid-stream — the brownout
// lever: a server under pressure thins the schedule (fewer XOR repairs, no
// dense tail) to trade repair margin for encode CPU, and restores it when the
// pressure clears. Negative values clamp to zero, matching the WithXorRepair
// and WithDenseTail options. The change takes effect within the current
// cycle: the phase counters are compared against the new schedule on the very
// next Block call. Not safe to call concurrently with Block.
func (s *SystematicEncoder) SetSchedule(xorRepair, denseTail int) {
	s.xorRepair = max(xorRepair, 0)
	s.denseTail = max(denseTail, 0)
}

// Block emits the next block of the cycle without allocating: the returned
// block is a view over the encoder's reusable storage (and, for systematic
// blocks, over the segment itself) and is valid only until the next Block,
// RepairBlock, NextBlock, or Reset call. Callers that retain blocks use
// NextBlock.
func (s *SystematicEncoder) Block() *CodedBlock {
	// Cycle-complete check up front rather than after the last repair emit,
	// so a schedule with a zero dense tail (or one shrunk mid-cycle by
	// SetSchedule) rolls straight into the next sweep without emitting a
	// stray dense block.
	if s.next >= s.enc.seg.params.BlockCount && s.repair >= s.xorRepair+s.denseTail {
		s.next, s.repair = 0, 0
	}
	return s.emit()
}

// RepairBlock is Block for receivers that already hold the sweep: it emits the
// cycle's XorRepair GF(2) blocks, then its DenseTail dense blocks, then starts
// the next cycle past its sweep, never emitting a source block verbatim. A
// schedule with no repair at all emits dense blocks — a caller asking for
// repair needs rank, and a dense block is the surest way to raise it. Called
// mid-sweep, it abandons the sweep. The returned block has Block's lifetime.
func (s *SystematicEncoder) RepairBlock() *CodedBlock {
	n := s.enc.seg.params.BlockCount
	if s.next < n || s.repair >= s.xorRepair+s.denseTail {
		s.next, s.repair = n, 0
	}
	return s.emit()
}

// emit produces the block the phase counters name and advances them.
func (s *SystematicEncoder) emit() *CodedBlock {
	seg := s.enc.seg
	s.blk.SegmentID = seg.id
	s.blk.Coeffs = s.coeffs
	switch {
	case s.next < seg.params.BlockCount:
		// Phase 1: source block verbatim. The payload aliases the segment —
		// a systematic emit is free of both arithmetic and copying.
		clear(s.coeffs)
		s.coeffs[s.next] = 1
		s.blk.Payload = seg.Block(s.next)
		s.next++
	case s.repair < s.xorRepair:
		// Phase 2: GF(2) repair. A random non-zero bitmask selects source
		// blocks; the payload is their pure XOR through the fused kernel.
		s.randomBitmask()
		xorRowsInto(s.payload, seg.Blocks(), s.coeffs)
		s.blk.Payload = s.payload
		s.repair++
	default:
		// Phase 3: dense GF(2^8) fallback for the final ranks.
		for i := range s.coeffs {
			s.coeffs[i] = byte(1 + s.enc.rng.Intn(255))
		}
		EncodeInto(s.payload, seg, s.coeffs)
		s.blk.Payload = s.payload
		s.repair++
	}
	return &s.blk
}

// randomBitmask fills the coefficient scratch with a random GF(2) vector —
// 64 fair coin flips per rng draw — redrawing until at least two sources are
// selected (one, when n == 1): a single-bit mask would just duplicate a
// systematic block instead of repairing across losses.
func (s *SystematicEncoder) randomBitmask() {
	minBits := min(2, len(s.coeffs))
	for {
		var w uint64
		bits := 0
		for i := range s.coeffs {
			if i%64 == 0 {
				w = s.enc.rng.Uint64()
			}
			bit := byte(w & 1)
			w >>= 1
			s.coeffs[i] = bit
			bits += int(bit)
		}
		if bits >= minBits {
			return
		}
	}
}

// NextBlock returns an owned copy of the next block in the cycle. It is the
// retaining counterpart of Block, kept with the historical (block, error)
// signature; the error is always nil.
func (s *SystematicEncoder) NextBlock() (*CodedBlock, error) {
	return s.Block().Clone(), nil
}

// Reset restarts the cycle at the systematic phase (e.g. for a new receiver
// round).
func (s *SystematicEncoder) Reset() { s.next, s.repair = 0, 0 }

// xorRowsInto computes dst = ⊕ rows[i] over every i with coeffs[i] != 0,
// folding four sources per destination pass through the fused GF(2) kernel.
// All selected rows must be at least len(dst) bytes.
func xorRowsInto(dst []byte, rows [][]byte, coeffs []byte) {
	clear(dst)
	var sel [4][]byte
	cnt := 0
	for i, c := range coeffs {
		if c == 0 {
			continue
		}
		sel[cnt] = rows[i]
		cnt++
		if cnt == 4 {
			gf256.XorSlice4(dst, sel[0], sel[1], sel[2], sel[3])
			cnt = 0
		}
	}
	for j := 0; j < cnt; j++ {
		gf256.XorSlice(dst, sel[j][:len(dst)])
	}
}
