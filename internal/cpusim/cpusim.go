// Package cpusim simulates the paper's CPU baseline: an 8-core 2.8 GHz
// Intel Xeon "Mac Pro" running the authors' multi-threaded, SSE2-accelerated
// network coding (IWQoS'07 / INFOCOM'09). Like internal/gpu it is a
// functional + cost-model simulator: coding results are computed exactly
// with the host codec while time is charged from a calibrated model of
// SIMD throughput, thread-barrier overhead, prefetcher efficiency, and the
// aggregate L2 capacity that caps multi-segment decoding (Secs. 4.3, 5.2,
// 5.3).
package cpusim

import (
	"errors"
	"fmt"

	"extremenc/internal/gf256"
	"extremenc/internal/matrix"
	"extremenc/internal/rlnc"
)

// Scheme selects the CPU GF-multiplication strategy.
type Scheme int

const (
	// LoopSIMD is the loop-based multiply vectorized over 16-byte SSE2
	// registers — the best CPU scheme (Sec. 4.1).
	LoopSIMD Scheme = iota + 1
	// TableBased is the log/exp scheme with log-domain preprocessing
	// ported to the CPU, where it loses up to 43% versus LoopSIMD because
	// byte-granular table lookups defeat the vector units (Sec. 5.1.3).
	TableBased
)

func (s Scheme) String() string {
	switch s {
	case LoopSIMD:
		return "loop-simd"
	case TableBased:
		return "table-based"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ErrSchemeUnknown reports an unrecognized CPU scheme.
var ErrSchemeUnknown = errors.New("cpusim: unknown scheme")

func (s Scheme) validate() error {
	if s != LoopSIMD && s != TableBased {
		return fmt.Errorf("%w: %d", ErrSchemeUnknown, int(s))
	}
	return nil
}

// CPUSpec describes a multicore host.
type CPUSpec struct {
	Name           string
	Cores          int
	ClockGHz       float64
	SIMDWidthBytes int
	L2CacheBytes   int     // aggregate last-level cache
	MemBandwidth   float64 // effective streaming bandwidth, GB/s
}

// Validate checks the spec for usability.
func (s CPUSpec) Validate() error {
	if s.Cores <= 0 || s.ClockGHz <= 0 || s.SIMDWidthBytes <= 0 {
		return fmt.Errorf("cpusim: spec %q has non-positive compute resources", s.Name)
	}
	if s.L2CacheBytes <= 0 || s.MemBandwidth <= 0 {
		return fmt.Errorf("cpusim: spec %q has non-positive memory resources", s.Name)
	}
	return nil
}

// CyclesPerSecond returns per-core cycles per second.
func (s CPUSpec) CyclesPerSecond() float64 { return s.ClockGHz * 1e9 }

// MacPro returns the paper's CPU testbed: a dual quad-core 2.8 GHz Xeon
// (8-core Mac Pro) with SSE2 and 24 MB of aggregate L2 cache.
func MacPro() CPUSpec {
	return CPUSpec{
		Name:           "8-core Mac Pro (2× quad 2.8 GHz Xeon, SSE2)",
		Cores:          8,
		ClockGHz:       2.8,
		SIMDWidthBytes: 16,
		L2CacheBytes:   24 << 20,
		MemBandwidth:   12.0,
	}
}

// cpuModel holds the calibrated cost constants (DESIGN.md §4).
type cpuModel struct {
	// encCyclesPerByte is the loop-based SIMD encode cost per source byte
	// per coefficient (≈7-iteration average folded in). Calibrated to the
	// 67.2 MB/s full-block plateau at n=128 (Fig. 10).
	encCyclesPerByte float64
	// tableCyclesPerByte is the table-based CPU multiply cost per byte —
	// scalar lookups, no vectorization (the 43% regression of Sec. 5.1.3).
	tableCyclesPerByte float64

	// decCyclesPerByte is the cooperative decode row-op cost per byte
	// (slightly above encode: read-modify-write rows, factor broadcast).
	decCyclesPerByte float64
	// barrierCycles is the cost of one 8-thread barrier, paid per row
	// operation in cooperative decoding (Sec. 5.2's "synchronization
	// point").
	barrierCycles float64

	// Prefetcher efficiency for partitioned-block encoding: a thread
	// streaming a contiguous chunk of c bytes runs at
	// floor + (1-floor)·min(1, c/saturation) of peak (Fig. 10).
	prefetchFloor      float64
	prefetchSaturation float64

	// decWriteAmplification scales row bytes into DRAM traffic when the
	// multi-segment working set spills the L2. It is fractional because the
	// L2 still captures most of each active row pair; only the excess
	// streams from DRAM (the Fig. 9 falloff is a dip, not a cliff —
	// ≈66 → ≈60 MB/s at n=128).
	decWriteAmplification float64
}

func defaultModel() cpuModel {
	return cpuModel{
		encCyclesPerByte:      2.60,
		tableCyclesPerByte:    4.56,
		decCyclesPerByte:      2.83,
		barrierCycles:         927,
		prefetchFloor:         0.48,
		prefetchSaturation:    1100,
		decWriteAmplification: 1.6,
	}
}

// Stats counts the simulator's accounted events.
type Stats struct {
	Ops      float64 // per-core cycles of useful work charged
	Barriers float64
	MemBytes float64 // DRAM traffic charged in memory-bound phases
}

// Machine is a simulated multicore host with an accumulated virtual clock.
// Not safe for concurrent use.
type Machine struct {
	spec  CPUSpec
	model cpuModel

	seconds float64
	stats   Stats
}

// NewMachine creates a machine with the default calibrated model.
func NewMachine(spec CPUSpec) (*Machine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Machine{spec: spec, model: defaultModel()}, nil
}

// Spec returns the machine description.
func (m *Machine) Spec() CPUSpec { return m.spec }

// Elapsed returns the simulated seconds consumed so far.
func (m *Machine) Elapsed() float64 { return m.seconds }

// Stats returns the accumulated counters.
func (m *Machine) Stats() Stats { return m.stats }

// Reset clears the clock and counters.
func (m *Machine) Reset() {
	m.seconds = 0
	m.stats = Stats{}
}

// EncodeResult reports a simulated CPU encode.
type EncodeResult struct {
	Blocks  []*rlnc.CodedBlock
	Seconds float64
	Bytes   int64
}

// BandwidthMBps returns coded bytes per second / 1e6.
func (r *EncodeResult) BandwidthMBps() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.Bytes) / r.Seconds / 1e6
}

// EncodeOptions tunes EncodeSegment.
type EncodeOptions struct {
	// Materialize caps how many coded blocks are actually computed and
	// returned (0 = all); the rest is accounted in time only.
	Materialize int
}

// EncodeSegment produces one coded block per coefficient row with all cores,
// in the given partitioning mode (Sec. 5.3): FullBlock assigns whole coded
// blocks to threads (streaming-server scheme, prefetcher-friendly);
// PartitionedBlock splits each block across the cores (on-demand scheme,
// k/cores-byte chunks per thread).
func (m *Machine) EncodeSegment(seg *rlnc.Segment, coeffs *matrix.Matrix, mode rlnc.EncodeMode, scheme Scheme, opts *EncodeOptions) (*EncodeResult, error) {
	if err := scheme.validate(); err != nil {
		return nil, err
	}
	if mode != rlnc.PartitionedBlock && mode != rlnc.FullBlock {
		return nil, fmt.Errorf("cpusim: unknown encode mode %d", int(mode))
	}
	if opts == nil {
		opts = &EncodeOptions{}
	}
	p := seg.Params()
	n, k := p.BlockCount, p.BlockSize
	if coeffs.Cols() != n {
		return nil, fmt.Errorf("cpusim: coefficient matrix has %d columns, want %d", coeffs.Cols(), n)
	}
	rows := coeffs.Rows()
	if rows == 0 {
		return nil, fmt.Errorf("cpusim: empty coefficient matrix")
	}

	materialize := rows
	if opts.Materialize > 0 && opts.Materialize < rows {
		materialize = opts.Materialize
	}
	blocks := make([]*rlnc.CodedBlock, materialize)
	for i := range blocks {
		payload := make([]byte, k)
		rlnc.EncodeInto(payload, seg, coeffs.Row(i))
		blocks[i] = &rlnc.CodedBlock{
			SegmentID: seg.ID(),
			Coeffs:    append([]byte(nil), coeffs.Row(i)...),
			Payload:   payload,
		}
	}

	// ---- Cost ----
	cyclesPerByte := m.model.encCyclesPerByte
	if scheme == TableBased {
		cyclesPerByte = m.model.tableCyclesPerByte
	}
	// Loop-based cost is data-dependent: scale by the real iteration counts
	// of the coefficient matrix relative to the random-byte average of 7.
	if scheme == LoopSIMD {
		total := 0
		for r := 0; r < rows; r++ {
			for _, c := range coeffs.Row(r) {
				total += gf256.LoopIterations(c)
			}
		}
		avg := float64(total) / float64(rows*n)
		cyclesPerByte *= avg / 7.0
	}

	// Prefetcher efficiency: a full-block thread walks the segment
	// sequentially (blocks are contiguous), so its streaming run is the
	// whole segment; a partitioned thread touches only a k/cores steak of
	// every block, a short strided chunk the prefetcher can't amortize —
	// the Fig. 10 gap.
	chunk := float64(p.SegmentSize())
	if mode == rlnc.PartitionedBlock {
		chunk = float64(k) / float64(m.spec.Cores)
	}
	eff := m.model.prefetchFloor + (1-m.model.prefetchFloor)*minf(1, chunk/m.model.prefetchSaturation)

	totalBytes := float64(rows) * float64(k)
	cycles := totalBytes * float64(n) * cyclesPerByte / eff / float64(m.spec.Cores)
	if mode == rlnc.PartitionedBlock {
		// One barrier per coded block: every thread must finish its stripe
		// before the block ships.
		m.stats.Barriers += float64(rows)
		cycles += float64(rows) * m.model.barrierCycles
	}
	m.stats.Ops += cycles
	m.seconds += cycles / m.spec.CyclesPerSecond()

	return &EncodeResult{
		Blocks:  blocks,
		Seconds: cycles / m.spec.CyclesPerSecond(),
		Bytes:   int64(rows) * int64(k),
	}, nil
}

// DecodeResult reports a simulated CPU decode.
type DecodeResult struct {
	Segments     []*rlnc.Segment
	Seconds      float64
	DecodedBytes int64
}

// BandwidthMBps returns decoded source bytes per second / 1e6.
func (r *DecodeResult) BandwidthMBps() float64 {
	if r.Seconds <= 0 {
		return 0
	}
	return float64(r.DecodedBytes) / r.Seconds / 1e6
}

// DecodeSegment decodes one segment with all cores cooperating on each
// Gauss–Jordan row operation (the original IWQoS'07 scheme behind Fig. 4b):
// each row of width n+k is split across the threads, with a barrier per row
// operation to agree on the pivot.
func (m *Machine) DecodeSegment(blocks []*rlnc.CodedBlock, p rlnc.Params) (*DecodeResult, error) {
	dec, err := rlnc.NewDecoder(p)
	if err != nil {
		return nil, err
	}
	rowOps := 0.0
	for _, b := range blocks {
		rank := dec.Rank()
		innovative, err := dec.AddBlock(b)
		if err != nil {
			return nil, err
		}
		rowOps += float64(rank)
		if innovative {
			rowOps += 1 + float64(rank)
		}
		if dec.Ready() {
			break
		}
	}
	if !dec.Ready() {
		return nil, fmt.Errorf("cpusim: %w: rank %d of %d",
			rlnc.ErrRankDeficient, dec.Rank(), p.BlockCount)
	}
	seg, err := dec.Segment()
	if err != nil {
		return nil, err
	}

	width := float64(p.BlockCount + p.BlockSize)
	perRowOp := width*m.model.decCyclesPerByte/float64(m.spec.Cores) + m.model.barrierCycles
	cycles := rowOps * perRowOp
	m.stats.Ops += cycles
	m.stats.Barriers += rowOps
	seconds := cycles / m.spec.CyclesPerSecond()
	m.seconds += seconds

	return &DecodeResult{
		Segments:     []*rlnc.Segment{seg},
		Seconds:      seconds,
		DecodedBytes: int64(p.SegmentSize()),
	}, nil
}

// MultiDecodeOptions tunes DecodeSegmentsParallel.
type MultiDecodeOptions struct {
	// MaterializeSegments caps how many segments are functionally decoded
	// (0 = all); the rest is accounted in time only.
	MaterializeSegments int
}

// DecodeSegmentsParallel decodes many segments with one thread per segment
// (the paper's CPU multi-segment scheme, Sec. 5.2): no barriers, full-width
// rows per thread, but a working set of segments·(n+k)·n bytes that falls
// out of the 24 MB aggregate L2 at large block sizes — the Fig. 9 falloff.
func (m *Machine) DecodeSegmentsParallel(sets [][]*rlnc.CodedBlock, p rlnc.Params, opts *MultiDecodeOptions) (*DecodeResult, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("cpusim: no segments to decode")
	}
	o := MultiDecodeOptions{}
	if opts != nil {
		o = *opts
	}
	materialize := len(sets)
	if o.MaterializeSegments > 0 && o.MaterializeSegments < materialize {
		materialize = o.MaterializeSegments
	}
	segments := make([]*rlnc.Segment, 0, materialize)
	for i := 0; i < materialize; i++ {
		seg, err := rlnc.DecodeTwoStage(p, sets[i])
		if err != nil {
			return nil, fmt.Errorf("cpusim: segment %d: %w", i, err)
		}
		segments = append(segments, seg)
	}

	n, k := p.BlockCount, p.BlockSize
	width := float64(n + k)
	rowOps := float64(n) * float64(n+1)
	perSegmentCycles := rowOps * width * m.model.decCyclesPerByte

	// Threads work independently; wall time is the per-core serial share.
	waves := float64((len(sets) + m.spec.Cores - 1) / m.spec.Cores)
	computeSeconds := waves * perSegmentCycles / m.spec.CyclesPerSecond()

	// Memory bound: when the concurrent working set exceeds the aggregate
	// L2, every row operation streams from DRAM.
	resident := minInt(len(sets), m.spec.Cores)
	workingSet := float64(resident) * float64(n) * width
	seconds := computeSeconds
	if workingSet > float64(m.spec.L2CacheBytes) {
		traffic := float64(len(sets)) * rowOps * width * m.model.decWriteAmplification
		memSeconds := traffic / (m.spec.MemBandwidth * 1e9)
		if memSeconds > seconds {
			seconds = memSeconds
		}
		m.stats.MemBytes += traffic
	}
	m.stats.Ops += float64(len(sets)) * perSegmentCycles / float64(m.spec.Cores)
	m.seconds += seconds

	return &DecodeResult{
		Segments:     segments,
		Seconds:      seconds,
		DecodedBytes: int64(len(sets)) * int64(p.SegmentSize()),
	}, nil
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// EstimateDecodeSegment charges the cooperative-decode cost of one dense
// full-rank segment at p without functional execution (planning API for
// large sweeps; Σⱼ(2j−1) = n² row operations).
func (m *Machine) EstimateDecodeSegment(p rlnc.Params) (*DecodeResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := float64(p.BlockCount)
	rowOps := n * n
	width := float64(p.BlockCount + p.BlockSize)
	perRowOp := width*m.model.decCyclesPerByte/float64(m.spec.Cores) + m.model.barrierCycles
	cycles := rowOps * perRowOp
	m.stats.Ops += cycles
	m.stats.Barriers += rowOps
	seconds := cycles / m.spec.CyclesPerSecond()
	m.seconds += seconds
	return &DecodeResult{Seconds: seconds, DecodedBytes: int64(p.SegmentSize())}, nil
}

// EstimateDecodeSegmentsParallel charges the one-thread-per-segment decode
// cost for the given segment count at p without functional execution.
func (m *Machine) EstimateDecodeSegmentsParallel(p rlnc.Params, segments int) (*DecodeResult, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if segments <= 0 {
		return nil, fmt.Errorf("cpusim: segment count %d must be positive", segments)
	}
	n, k := p.BlockCount, p.BlockSize
	width := float64(n + k)
	rowOps := float64(n) * float64(n+1)
	perSegmentCycles := rowOps * width * m.model.decCyclesPerByte

	waves := float64((segments + m.spec.Cores - 1) / m.spec.Cores)
	seconds := waves * perSegmentCycles / m.spec.CyclesPerSecond()

	resident := minInt(segments, m.spec.Cores)
	workingSet := float64(resident) * float64(n) * width
	if workingSet > float64(m.spec.L2CacheBytes) {
		traffic := float64(segments) * rowOps * width * m.model.decWriteAmplification
		memSeconds := traffic / (m.spec.MemBandwidth * 1e9)
		if memSeconds > seconds {
			seconds = memSeconds
		}
		m.stats.MemBytes += traffic
	}
	m.stats.Ops += float64(segments) * perSegmentCycles / float64(m.spec.Cores)
	m.seconds += seconds
	return &DecodeResult{Seconds: seconds, DecodedBytes: int64(segments) * int64(p.SegmentSize())}, nil
}
