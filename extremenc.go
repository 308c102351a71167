// Package extremenc is a high-performance random linear network coding
// (RLNC) library — a Go reproduction of "Pushing the Envelope: Extreme
// Network Coding on the GPU" (Shojania & Li, IEEE ICDCS 2009).
//
// The package has three layers:
//
//   - A production host codec: GF(2^8) random linear codes with segments,
//     coded blocks (with a checksummed wire format), progressive
//     Gauss–Jordan decoding, batch invert-then-multiply decoding, recoding
//     at intermediate nodes, and goroutine-parallel encode/decode workers.
//
//   - Simulated testbeds reproducing the paper's evaluation hardware: the
//     NVIDIA GTX 280 / 8800 GT (a functional CUDA-like simulator with a
//     calibrated cycle-cost model: warp occupancy, shared-memory bank
//     conflicts, texture caching, kernel launches) and the 8-core Xeon
//     "Mac Pro" baseline. Every kernel computes real, verified coded data.
//
//   - Deployment components: a network-coded streaming server (live and
//     VoD), and an Avalanche-style P2P distribution simulation with
//     recoding versus forwarding baselines.
//
// Quick start:
//
//	params := extremenc.Params{BlockCount: 128, BlockSize: 4096}
//	seg, _ := extremenc.SegmentFromData(0, params, payload)
//	enc := extremenc.NewEncoder(seg, rng)
//	dec, _ := extremenc.NewDecoder(params)
//	for !dec.Ready() {
//		dec.AddBlock(enc.NextBlock())
//	}
//	recovered, _ := dec.Segment()
//
// The experiment harness behind every figure of the paper is exposed via
// Experiments and the ncbench command; see EXPERIMENTS.md for the
// paper-versus-measured record.
package extremenc

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"

	"extremenc/internal/core"
	"extremenc/internal/cpusim"
	"extremenc/internal/experiments"
	"extremenc/internal/faultnet"
	"extremenc/internal/gf256"
	"extremenc/internal/gpu"
	"extremenc/internal/mesh"
	"extremenc/internal/ncfile"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/p2p"
	"extremenc/internal/rlnc"
	"extremenc/internal/stream"
)

// Core codec types (see internal/rlnc for full documentation).
type (
	// Params is a coding configuration: n blocks of k bytes per segment.
	Params = rlnc.Params
	// Segment is one generation of source data.
	Segment = rlnc.Segment
	// CodedBlock is a coefficient vector plus coded payload, with a
	// checksummed binary wire format.
	CodedBlock = rlnc.CodedBlock
	// Recoder emits fresh combinations of received blocks without decoding.
	Recoder = rlnc.Recoder
	// EncodeMode selects full-block or partitioned-block parallelism.
	EncodeMode = rlnc.EncodeMode
)

// FullBlock is the full-block parallel-encode partitioning (paper Sec. 5.3).
const FullBlock = rlnc.FullBlock

// NewSegment returns a zero-filled segment.
func NewSegment(id uint32, p Params) (*Segment, error) { return rlnc.NewSegment(id, p) }

// SegmentFromData builds a zero-padded segment from data.
func SegmentFromData(id uint32, p Params, data []byte) (*Segment, error) {
	return rlnc.SegmentFromData(id, p, data)
}

// NewEncoder returns a random linear encoder over seg.
func NewEncoder(seg *Segment, rng *rand.Rand) *rlnc.Encoder {
	return rlnc.NewEncoder(seg, rng)
}

// WithSeed gives a codec a private deterministic random source (Recoder.Emit).
func WithSeed(seed int64) rlnc.Option { return rlnc.WithSeed(seed) }

// NewDecoder returns a decoder for one segment: rank and dependence are
// decided per arriving block, and the payload is recovered by one two-stage
// multiply when rank n is reached.
func NewDecoder(p Params, opts ...rlnc.Option) (*rlnc.Decoder, error) {
	return rlnc.NewDecoder(p, opts...)
}

// NewRecoder returns a recoder for intermediate nodes.
func NewRecoder(p Params, opts ...rlnc.Option) (*Recoder, error) {
	return rlnc.NewRecoder(p, opts...)
}

// Split divides data into coding segments.
func Split(data []byte, p Params) (*rlnc.Object, error) { return rlnc.Split(data, p) }

// ReassembleSegments rebuilds a payload from decoded segments.
func ReassembleSegments(segs []*Segment, length int, p Params) ([]byte, error) {
	return rlnc.ReassembleSegments(segs, length, p)
}

// XorSlice computes dst ^= src with wide-word XOR — the table-free GF(2)
// add kernel behind the systematic fast path. Slices must be equal length.
func XorSlice(dst, src []byte) { gf256.XorSlice(dst, src) }

// XorSlice4 folds four equal-length sources into dst in one fused pass,
// reading dst once instead of four times.
func XorSlice4(dst, s1, s2, s3, s4 []byte) { gf256.XorSlice4(dst, s1, s2, s3, s4) }

// NewParallelEncoder returns a goroutine-parallel host encoder.
func NewParallelEncoder(workers int, mode EncodeMode) (*rlnc.ParallelEncoder, error) {
	return rlnc.NewParallelEncoder(workers, mode)
}

// Simulated hardware (see internal/gpu and internal/cpusim).

// GPUScheme identifies a GPU multiplication kernel (LoopBased,
// TableBased0…TableBased5).
type GPUScheme = gpu.Scheme

// CPULoopSIMD is the loop-based SIMD CPU multiplication strategy (paper
// Secs. 4.1 and 5.1.3).
const CPULoopSIMD = cpusim.LoopSIMD

// GPU kernel schemes in the paper's Fig. 7 ladder.
const (
	LoopBased   = gpu.LoopBased
	TableBased0 = gpu.TableBased0
	TableBased1 = gpu.TableBased1
	TableBased2 = gpu.TableBased2
	TableBased3 = gpu.TableBased3
	TableBased4 = gpu.TableBased4
	TableBased5 = gpu.TableBased5
)

// GTX280 returns the paper's primary GPU testbed spec.
func GTX280() gpu.DeviceSpec { return gpu.GTX280() }

// MacPro returns the paper's 8-core Xeon CPU baseline spec.
func MacPro() cpusim.CPUSpec { return cpusim.MacPro() }

// Engines (see internal/core).
type (
	// EncodeEngine produces coded blocks at an engine-specific rate.
	EncodeEngine = core.Encoder
	// StreamScenario is a streaming-server configuration.
	StreamScenario = core.StreamScenario
)

// NewGPUEncoder returns an encode engine on a fresh simulated device.
func NewGPUEncoder(spec gpu.DeviceSpec, scheme GPUScheme) (*core.GPUEncoder, error) {
	return core.NewGPUEncoder(spec, scheme)
}

// NewCPUEncoder returns a simulated multicore encode engine.
func NewCPUEncoder(spec cpusim.CPUSpec, mode EncodeMode, scheme cpusim.Scheme) (*core.CPUEncoder, error) {
	return core.NewCPUEncoder(spec, mode, scheme)
}

// NewCombinedEncoder pairs a GPU and a CPU engine (paper Sec. 5.4.1).
func NewCombinedEncoder(gpuEnc, cpuEnc EncodeEngine) *core.CombinedEncoder {
	return core.NewCombinedEncoder(gpuEnc, cpuEnc)
}

// GPUDecodeOptions tunes the single-segment GPU decoder (atomicMin pivot
// search, coefficient-matrix caching).
type GPUDecodeOptions = gpu.DecodeOptions

// NewGPUSingleDecoder returns the paper's progressive single-segment GPU
// decoder (Sec. 4.2.2).
func NewGPUSingleDecoder(spec gpu.DeviceSpec, opts GPUDecodeOptions) (*core.GPUSingleDecoder, error) {
	return core.NewGPUSingleDecoder(spec, opts)
}

// NewGPUMultiDecoder returns the paper's multi-segment GPU decoder
// (Sec. 5.2); segmentsPerSM 1 = 30-segment mode, 2 = 60-segment mode.
func NewGPUMultiDecoder(spec gpu.DeviceSpec, segmentsPerSM int) (*core.GPUMultiDecoder, error) {
	return core.NewGPUMultiDecoder(spec, segmentsPerSM)
}

// NewHostDecoder returns a decode engine measuring the real local machine.
func NewHostDecoder(workers int) *core.HostDecoder {
	return core.NewHostDecoder(workers)
}

// DefaultStreamScenario returns the paper's 768 Kbps / 512 KB-segment
// streaming configuration (Sec. 5.1.1).
func DefaultStreamScenario() StreamScenario { return core.DefaultStreamScenario() }

// NewStreamServer builds a streaming server (see internal/stream) over media
// with the given engine.
func NewStreamServer(scenario StreamScenario, enc EncodeEngine, media []byte) (*stream.Server, error) {
	return stream.NewServer(scenario, enc, media)
}

// P2P distribution (see internal/p2p).
type (
	// P2PConfig describes an Avalanche-style distribution session.
	P2PConfig = p2p.Config
	// P2PMode selects the distribution strategy.
	P2PMode = p2p.Mode
)

// P2P distribution strategies.
const (
	P2PModeRLNC    = p2p.ModeRLNC
	P2PModeForward = p2p.ModeForward
	P2PModeUncoded = p2p.ModeUncoded
)

// RunP2P executes one distribution session.
func RunP2P(cfg P2PConfig) (*p2p.Result, error) { return p2p.Run(cfg) }

// NewSystematicEncoder wraps seg in a systematic encoder: one verbatim
// sweep of the source blocks, then GF(2) bitmask XOR repair blocks, then a
// dense GF(2^8) tail for the stubborn final ranks.
func NewSystematicEncoder(seg *Segment, rng *rand.Rand, opts ...rlnc.SystematicOption) *rlnc.SystematicEncoder {
	return rlnc.NewSystematicEncoder(seg, rng, opts...)
}

// WithXorRepair sets how many GF(2) bitmask repair blocks follow each
// verbatim sweep before the encoder falls back to dense coding.
func WithXorRepair(r int) rlnc.SystematicOption { return rlnc.WithXorRepair(r) }

// WithDenseTail sets how many dense GF(2^8) blocks close each cycle.
func WithDenseTail(t int) rlnc.SystematicOption { return rlnc.WithDenseTail(t) }

// Network transport (see internal/netio). A server or fetcher is configured
// by one struct: start from the Default*Config value, assign the fields that
// differ, and hand it to the FromConfig constructor.
type (
	// NetServer streams coded blocks to TCP (or any net.Conn) clients:
	// concurrent sessions fed from one encoder pump, bounded per-client
	// queues with shedding, write deadlines, and a metrics snapshot.
	NetServer = netio.Server
	// NetServerConfig is the complete serving configuration.
	NetServerConfig = netio.ServerConfig
	// NetFetcherConfig is the complete resilient-fetcher configuration.
	NetFetcherConfig = netio.FetcherConfig
)

// NetSnapshotVersion identifies the NetServer.Snapshot schema.
const NetSnapshotVersion = netio.SnapshotVersion

// DefaultNetServerConfig returns the serving defaults.
func DefaultNetServerConfig() NetServerConfig { return netio.DefaultServerConfig() }

// DefaultNetFetcherConfig returns the fetcher defaults.
func DefaultNetFetcherConfig() NetFetcherConfig { return netio.DefaultFetcherConfig() }

// NewNetServerFromConfig builds a push-streaming server over media split at
// p; cfg.Validate failures are returned.
func NewNetServerFromConfig(media []byte, p Params, cfg NetServerConfig) (*NetServer, error) {
	return netio.NewServerFromConfig(media, p, cfg)
}

// NewFetcherFromConfig builds a resilient Fetcher — a reconnecting download
// client that owns a dial function rather than a connection and carries
// per-segment decoders across reconnects, so a reset or server restart costs
// only the bytes in flight, never accumulated rank. cfg.Validate failures
// are returned.
func NewFetcherFromConfig(dial netio.DialFunc, cfg NetFetcherConfig) (*netio.Fetcher, error) {
	return netio.NewFetcherFromConfig(dial, cfg)
}

// WireMode is the wire discipline a serving session negotiates in its
// handshake: classic dense GF(2^8) records, or the systematic discipline
// (source blocks verbatim, once per session, then GF(2) bitmask XOR repair
// and a dense tail for a client that asks).
type WireMode = netio.WireMode

// Wire disciplines.
const (
	// ModeDense streams dense GF(2^8) coded records only.
	ModeDense = netio.ModeDense
	// ModeSystematic writes each session the source blocks once and
	// serves XOR and dense repair on request, letting clients decode on
	// the table-free XOR fast path until a dense record arrives.
	ModeSystematic = netio.ModeSystematic
)

// ParseWireMode parses a WireMode from its flag spelling ("dense",
// "systematic").
func ParseWireMode(s string) (WireMode, error) { return netio.ParseWireMode(s) }

// Fetch downloads and decodes a served object from conn. Cancelling ctx
// unblocks any pending read and returns ctx.Err(). Fetch is the one-shot
// path: any stream failure is final. For a client that survives resets,
// framing loss, and server restarts without losing decoder rank, use
// NewFetcherFromConfig.
func Fetch(ctx context.Context, conn net.Conn) ([]byte, *netio.FetchStats, error) {
	return netio.Fetch(ctx, conn)
}

// Deterministic fault injection (see internal/faultnet): a seeded chaos
// net.Conn layer for testing transports under byte corruption, short
// reads/writes, read stalls, and mid-stream resets on a reproducible
// schedule.

// FaultConfig schedules the injected faults for one seed.
type FaultConfig = faultnet.Config

// FaultyDialer wraps dial so every dialed conn injects faults on a
// per-connection deterministic schedule, sharing the returned counters.
func FaultyDialer(cfg FaultConfig, dial netio.DialFunc) (netio.DialFunc, *faultnet.Counters) {
	d, ctr := faultnet.Dialer(cfg, dial)
	return d, ctr
}

// Recoding relay mesh (see internal/mesh): an origin server feeding a tier
// of relays that recombine received blocks without decoding and re-serve
// them to leaf fetchers, with one control plane — membership, health read off
// each relay's rank and open flag, least-loaded leaf routes, remediation —
// that re-points leaves off dead relays mid-transfer.

// MeshTopology describes an in-process mesh: media, coding params, relay
// count, wire mode, chaos configs, sweep period and rank-stall window.
type MeshTopology = mesh.Topology

// NewMesh builds (but does not start) a mesh — an origin and a relay tier
// under one control plane, to which Mesh.AddLeaf adds leaves — for the
// topology.
func NewMesh(topo MeshTopology) (*mesh.Mesh, error) { return mesh.New(topo) }

// FileEncodeOptions tunes EncodeFile (coded file containers; see
// internal/ncfile).
type FileEncodeOptions = ncfile.EncodeOptions

// EncodeFile writes payload bytes from r as a loss-tolerant coded container
// on w.
func EncodeFile(w io.Writer, r io.Reader, p Params, opts FileEncodeOptions) (*ncfile.EncodeSummary, error) {
	return ncfile.Encode(w, r, p, opts)
}

// DecodeFile recovers the payload of a coded container, skipping corrupt
// records.
func DecodeFile(w io.Writer, r io.Reader) (*ncfile.DecodeSummary, error) {
	return ncfile.Decode(w, r)
}

// Experiments returns the IDs of the paper's reproduced tables and figures
// in evaluation order (see EXPERIMENTS.md).
func Experiments() []string {
	reg := experiments.Registry()
	ids := make([]string, len(reg))
	for i, e := range reg {
		ids[i] = e.ID
	}
	return ids
}

// RunExperiment regenerates one table or figure by ID and renders it as an
// aligned text table to w.
func RunExperiment(id string, w io.Writer) error {
	runner, ok := experiments.Lookup(id)
	if !ok {
		return fmt.Errorf("extremenc: unknown experiment %q", id)
	}
	fig, err := runner()
	if err != nil {
		return err
	}
	return fig.Render(w)
}

// PlaybackConfig describes a live viewing session to simulate (playback
// modeling; see internal/stream).
type PlaybackConfig = stream.PlaybackConfig

// SimulatePlayback models viewer startup delay and stalls for a peer
// population against a server's coding and NIC capacity (Sec. 5.1.2's
// buffering analysis).
func SimulatePlayback(cfg PlaybackConfig) (*stream.PlaybackMetrics, error) {
	return stream.SimulatePlayback(cfg)
}

// MaxSmoothPeers returns the largest stall-free viewer count at the given
// encode rate.
func MaxSmoothPeers(s StreamScenario, encodeMBps float64) int {
	return stream.MaxSmoothPeers(s, encodeMBps)
}

// Observability (see internal/obs). One registry collects every counter,
// gauge, and stage-latency histogram the library produces; the session
// server attaches via NetServerConfig.Metrics, the resilient fetcher via
// NetFetcherConfig.Metrics, the chaos link via its counters' Register, and
// the stream server via Server.RegisterMetrics. SetMetricsSink additionally
// enables the stage-timing spans on the codec and transport hot paths —
// without a sink they cost one atomic load and zero allocations.

// NewMetricsRegistry creates an empty registry of named lock-free metrics
// with Prometheus-text (WriteText) and JSON (SnapshotJSON) exposition.
func NewMetricsRegistry() *obs.Registry { return obs.NewRegistry() }

// SetMetricsSink installs reg as the process-wide span sink, turning on the
// stage-latency histograms (rlnc.encode_batch, rlnc.absorb, netio.*,
// fetch.*). Passing nil disables spans again, returning the hot paths to
// their free no-op form.
func SetMetricsSink(reg *obs.Registry) { obs.SetSink(reg) }

// MetricsHandler serves reg over HTTP: Prometheus text on /metrics, a JSON
// snapshot on /metrics.json (merged with extra() when non-nil), and the
// pprof profiles under /debug/pprof/; every other path is a 404.
func MetricsHandler(reg *obs.Registry, extra func() map[string]any) http.Handler {
	return obs.Handler(reg, extra)
}

// Sentinel errors, re-exported from the codec and transport layers so
// callers can branch with errors.Is against the facade alone.
var (
	// ErrInvalidParams reports an unusable coding configuration.
	ErrInvalidParams = rlnc.ErrInvalidParams
	// ErrNotReady reports a Segment call before full rank.
	ErrNotReady = rlnc.ErrNotReady
	// ErrWorkerCount reports a non-positive worker count.
	ErrWorkerCount = rlnc.ErrWorkerCount
	// ErrEncodeMode reports an unknown parallel-encode mode.
	ErrEncodeMode = rlnc.ErrEncodeMode
	// ErrCoeffsMismatch reports a mis-sized coefficient vector.
	ErrCoeffsMismatch = rlnc.ErrCoeffsMismatch
	// ErrBlockShape reports a mis-shaped coded block.
	ErrBlockShape = rlnc.ErrBlockShape
	// ErrNoBlocks reports a recombination request with no input.
	ErrNoBlocks = rlnc.ErrNoBlocks
	// ErrNoSeed reports Recoder.Emit without WithSeed.
	ErrNoSeed = rlnc.ErrNoSeed
	// ErrDataTooLarge reports payload bytes exceeding the segment size.
	ErrDataTooLarge = rlnc.ErrDataTooLarge
	// ErrBadResumeState reports an unusable NetFetcherConfig.ResumeState
	// blob.
	ErrBadResumeState = netio.ErrBadResumeState
)
