package rlnc

import (
	"fmt"
	"math/rand"

	"extremenc/internal/gf256"
)

// Encoder produces coded blocks from one source segment using independently
// and randomly chosen coefficients (paper Sec. 3). The paper's evaluation
// uses fully dense matrices with non-zero coefficients; a Density option
// below 1 produces sparse vectors for the sparse-coding ablation.
type Encoder struct {
	seg     *Segment
	rng     *rand.Rand
	density float64
}

// EncoderOption configures an Encoder.
type EncoderOption func(*Encoder)

// WithDensity sets the probability that each coefficient is non-zero.
// Density 1 (the default) draws every coefficient uniformly from [1, 255],
// matching the paper's fully dense benchmark matrices.
func WithDensity(d float64) EncoderOption {
	return func(e *Encoder) { e.density = d }
}

// NewEncoder returns an encoder over seg driven by rng (which determines the
// coefficient stream; pass a seeded source for reproducibility).
func NewEncoder(seg *Segment, rng *rand.Rand, opts ...EncoderOption) *Encoder {
	e := &Encoder{seg: seg, rng: rng, density: 1}
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// NextCoeffs draws a fresh coefficient vector.
func (e *Encoder) NextCoeffs() []byte {
	n := e.seg.params.BlockCount
	coeffs := make([]byte, n)
	for {
		nonZero := false
		for i := range coeffs {
			if e.density >= 1 || e.rng.Float64() < e.density {
				coeffs[i] = byte(1 + e.rng.Intn(255))
				nonZero = true
			} else {
				coeffs[i] = 0
			}
		}
		if nonZero {
			return coeffs
		}
	}
}

// NextBlock draws random coefficients and returns the corresponding coded
// block.
func (e *Encoder) NextBlock() *CodedBlock {
	b, err := e.BlockFor(e.NextCoeffs())
	if err != nil {
		// NextCoeffs always produces a vector of the right length.
		panic(fmt.Sprintf("rlnc: internal encoder error: %v", err))
	}
	return b
}

// BlockFor returns the coded block for an explicit coefficient vector —
// Eq. 1: x = Σ c_i · b_i.
func (e *Encoder) BlockFor(coeffs []byte) (*CodedBlock, error) {
	p := e.seg.params
	if len(coeffs) != p.BlockCount {
		return nil, fmt.Errorf("%w: %d coefficients, want %d", ErrCoeffsMismatch, len(coeffs), p.BlockCount)
	}
	payload := make([]byte, p.BlockSize)
	EncodeInto(payload, e.seg, coeffs)
	return &CodedBlock{
		SegmentID: e.seg.id,
		Coeffs:    append([]byte(nil), coeffs...),
		Payload:   payload,
	}, nil
}

// EncodeInto computes Σ c_i·b_i over the segment's source blocks into dst
// (len ≥ BlockSize). It is the primitive shared by the encoder, the parallel
// workers and the simulators' reference checks. Internally it is the
// batch-size-1 case of the tiled batch kernel, so the zero-coefficient skip
// and fused source grouping live in one place (see encodebatch.go).
func EncodeInto(dst []byte, seg *Segment, coeffs []byte) {
	k := seg.params.BlockSize
	gf256.DotProduct(dst[:k], coeffs, seg.Blocks())
}

// DrawCoeffs fills dst with dense coefficients from rng: each byte uniform on
// [1, 255], one Intn draw per byte — the stream Encoder.NextCoeffs produces at
// density 1.
func DrawCoeffs(dst []byte, rng *rand.Rand) {
	for i := range dst {
		dst[i] = byte(1 + rng.Intn(255))
	}
}

// Recoder regenerates fresh coded blocks from previously received ones
// without decoding — the capability that distinguishes network coding from
// end-to-end erasure codes ("can be recoded without affecting the guarantee
// to decode", Sec. 2). The recoded block's coefficients are re-expressed in
// terms of the original source blocks so downstream decoders are oblivious
// to the number of recoding hops.
type Recoder struct {
	params Params
	segID  uint32

	// rows holds each innovative input as one [coeffs | payload] row of n+k
	// bytes — the shape of the record it arrived in and of every record
	// emitted from it, so a recombination is one batch multiply over whole
	// rows. Linearly dependent input is dropped at the door (it would cost
	// memory and recombination work without enlarging the span), so at most
	// BlockCount rows are ever held and a relay's memory is bounded no matter
	// how long the upstream stream runs.
	rows [][]byte

	// probe is the reduced basis that decides innovation: probe[c] is the
	// vector with pivot c, kept in the tail of its input's row allocation.
	// scratch is where an arrival is reduced before it has earned a row.
	probe   [][]byte
	scratch []byte

	// rng, when set via WithSeed, drives Emit so the caller does not have
	// to thread a random source through every recombination.
	rng *rand.Rand

	// xorRecode (WithXorRecode) constrains emissions to GF(2)
	// recombinations through the XOR kernels: binary coefficients, no
	// table multiplies.
	xorRecode bool

	// mix is a batch's recombination coefficients, one len(rows) vector per
	// emission, and mixRows its per-emission views; both are reused.
	mix     []byte
	mixRows [][]byte

	// mul decides where a dense batch's multiply runs.
	mul batchMul
}

// NewRecoder returns a recoder for the given configuration. WithSeed gives
// it a private deterministic source so Emit can draw recombination
// coefficients without a caller-supplied rng; WithXorRecode constrains
// emissions to XOR-only recombinations.
func NewRecoder(p Params, opts ...Option) (*Recoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg := applyOptions(opts)
	return &Recoder{
		params:    p,
		rows:      make([][]byte, 0, p.BlockCount),
		probe:     make([][]byte, p.BlockCount),
		scratch:   make([]byte, p.BlockCount),
		rng:       cfg.rng,
		xorRecode: cfg.xorRecode,
		mul:       batchMul{workers: SharedPool().Workers()},
	}, nil
}

// Add registers a received coded block as recoding input. Blocks that are
// linearly dependent with input already held are discarded (they cannot
// change any recombination) at no allocation; Rank reports the span. An
// innovative block is copied into one row of its own, so the caller may keep
// mutating or reusing b — a relay can feed Add straight from a receive loop
// that recycles its record storage.
//
// Binary blocks — a systematic sweep or GF(2) XOR repair stream, including
// records parsed from the compact XNC2 encoding — are ordinary input: their
// {0, 1} coefficients are valid GF(2^8) elements, so recombinations over
// them decode identically downstream. Emissions from a default recoder are
// dense regardless of input; under WithXorRecode binary input yields binary
// output.
func (r *Recoder) Add(b *CodedBlock) error {
	if err := b.Validate(r.params); err != nil {
		return err
	}
	if len(r.rows) > 0 && b.SegmentID != r.segID {
		return wrongSegmentError(r.segID, b.SegmentID)
	}
	pivot := r.reduce(b.Coeffs)
	if pivot < 0 {
		return nil
	}
	// One allocation per innovative input: the [coeffs | payload] row, then
	// its reduced coefficient vector for the probe.
	n, k := r.params.BlockCount, r.params.BlockSize
	buf := make([]byte, n+k+n)
	copy(buf, b.Coeffs)
	copy(buf[n:], b.Payload)
	copy(buf[n+k:], r.scratch)
	r.probe[pivot] = buf[n+k:]
	r.rows = append(r.rows, buf[:n+k:n+k])
	r.segID = b.SegmentID
	return nil
}

// reduce eliminates coeffs against the probe basis in r.scratch, normalised
// to a leading 1, and returns its pivot column, or -1 when the vector is
// dependent on input already held.
func (r *Recoder) reduce(coeffs []byte) int {
	row := r.scratch
	copy(row, coeffs)
	pivot := -1
	for c := range row {
		f := row[c]
		if f == 0 {
			continue
		}
		if pr := r.probe[c]; pr != nil {
			// A probe row is zero left of its pivot; widening the span to
			// whole SIMD steps, as the decoder does, adds only zeros.
			lo := c &^ (planeStep - 1)
			gf256.MulAddSlice(row[lo:], pr[lo:], f)
			continue
		}
		if pivot < 0 {
			pivot = c
		}
	}
	if pivot >= 0 && row[pivot] != 1 {
		gf256.ScaleSlice(row[pivot&^(planeStep-1):], gf256.Inv(row[pivot]))
	}
	return pivot
}

// Count returns the number of innovative blocks held for recombination.
func (r *Recoder) Count() int { return len(r.rows) }

// Rank returns the dimension of the subspace the recoder can emit from: only
// innovative blocks are held, so it is their count.
func (r *Recoder) Rank() int { return len(r.rows) }

// Emit is NextBlock against the recoder's own random source (set with
// WithSeed). It fails with ErrNoBlocks when nothing has been received (a
// rank-0 recoder has no subspace to emit from — callers poll Rank and hold
// off until input arrives) and with ErrNoSeed when the recoder was built
// without one. Both failures leave the recoder unchanged and usable.
func (r *Recoder) Emit() (*CodedBlock, error) { return r.NextBlock(r.rng) }

// EmitInto is a batch of Emits written where the caller wants them: each
// dsts[i], at least BlockCount+BlockSize bytes, receives one recombination
// as a [coeffs | payload] row — a wire record's middle, see PutWireHeader.
// Coefficients are drawn emission by emission, so a batch of B is byte for
// byte B successive Emits; one tiled batch multiply over the held rows then
// writes them all, allocating nothing once a batch this large has been seen.
// That multiply runs on the caller below dispatchFloor and is split by whole
// emissions across SharedPool at or above it (32 emissions at n=128, k=4096
// are ~17 MiB of multiply-add), so the recoder must not be used from a pool
// task.
// Errors are Emit's, plus ErrBatchShape for a short destination; all leave
// the recoder and its random source unchanged.
func (r *Recoder) EmitInto(dsts [][]byte) error { return r.emitInto(dsts, r.rng) }

func (r *Recoder) emitInto(dsts [][]byte, rng *rand.Rand) error {
	if rng == nil {
		return fmt.Errorf("%w: build the recoder with WithSeed or call NextBlock", ErrNoSeed)
	}
	if len(r.rows) == 0 {
		return fmt.Errorf("%w: recoder received nothing", ErrNoBlocks)
	}
	width := r.params.BlockCount + r.params.BlockSize
	for i, d := range dsts {
		if len(d) < width {
			return fmt.Errorf("%w: emission %d destination %d bytes, want ≥ %d", ErrBatchShape, i, len(d), width)
		}
	}
	if r.xorRecode {
		// GF(2) discipline: each input is either folded in whole (XOR) or
		// skipped. The selector is redrawn until non-zero, so the emission
		// is never the zero vector; the ops are the wide-word XOR kernels —
		// no multiply tables touched.
		sel := r.mixFor(1)[0]
		for _, d := range dsts {
			for any := false; !any; {
				for i := range sel {
					sel[i] = byte(rng.Intn(2))
					any = any || sel[i] == 1
				}
			}
			clear(d[:width])
			for i, row := range r.rows {
				if sel[i] == 1 {
					gf256.XorSlice(d[:width], row)
				}
			}
		}
		return nil
	}
	mix := r.mixFor(len(dsts))
	for _, cs := range mix {
		DrawCoeffs(cs, rng)
	}
	r.mul.run(dsts, r.rows, mix, width)
	return nil
}

// mixFor returns count reusable coefficient vectors, one entry per held row.
func (r *Recoder) mixFor(count int) [][]byte {
	held := len(r.rows)
	if cap(r.mix) < count*held {
		r.mix = make([]byte, count*r.params.BlockCount)
	}
	if cap(r.mixRows) < count {
		r.mixRows = make([][]byte, count)
	}
	rows := r.mixRows[:count]
	for i := range rows {
		rows[i] = r.mix[i*held : (i+1)*held]
	}
	return rows
}

// NextBlock emits a random linear recombination of everything received.
// It fails with ErrNoBlocks when no input blocks are available. With a
// single held input the emission degrades to a scaled passthrough of that
// block (or, under WithXorRecode, the block verbatim) — still a valid coded
// block for the original source, so a relay can start serving after its
// very first upstream record.
func (r *Recoder) NextBlock(rng *rand.Rand) (*CodedBlock, error) {
	n := r.params.BlockCount
	row := make([]byte, n+r.params.BlockSize)
	if err := r.emitInto([][]byte{row}, rng); err != nil {
		return nil, err
	}
	return &CodedBlock{SegmentID: r.segID, Coeffs: row[:n:n], Payload: row[n:]}, nil
}
