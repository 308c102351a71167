// Package stream implements the paper's target deployment: a media
// streaming server that keeps segments resident on the coding device and
// generates coded blocks for downstream peers (Secs. 5.1.1–5.1.2). It
// drives any core.Encoder — simulated GPU, simulated CPU, or the real host
// — through live and VoD workloads, reporting whether the engine keeps up
// with real time, how many peers it sustains, and how hard it loads the
// NICs. A sample client decodes real blocks every run, so served data is
// verified end to end.
package stream

import (
	"fmt"

	"extremenc/internal/core"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

// materializer is implemented by engines whose functional-block sample size
// can be tuned; the server raises it for the verification segment.
type materializer interface {
	SetMaterialize(n int)
}

// Server is a network-coded streaming server.
type Server struct {
	scenario core.StreamScenario
	encoder  core.Encoder
	object   *rlnc.Object

	// counters accumulate modeled serving traffic across runs in the same
	// vocabulary as the netio session server, so one observability surface
	// covers both the real-socket and the engine-driven serving paths.
	counters netio.Counters
}

// NewServer splits media into scenario-sized segments and prepares the
// engine. Media must be non-empty.
func NewServer(scenario core.StreamScenario, enc core.Encoder, media []byte) (*Server, error) {
	if len(media) == 0 {
		return nil, fmt.Errorf("stream: empty media")
	}
	if enc == nil {
		return nil, fmt.Errorf("stream: nil encoder")
	}
	obj, err := rlnc.Split(media, scenario.Params)
	if err != nil {
		return nil, err
	}
	return &Server{scenario: scenario, encoder: enc, object: obj}, nil
}

// Segments returns the number of media segments the server holds.
func (s *Server) Segments() int { return len(s.object.Segments) }

// Counters reports the server's cumulative serving traffic (across every
// ServeLive/ServeVoD run) as a netio counter view: blocks encoded by the
// engine and blocks/bytes offered to and delivered into the modeled peer
// streams.
func (s *Server) Counters() netio.CounterView { return s.counters.View() }

// RegisterMetrics attaches the server's serving counters to reg under
// prefix (conventionally "stream"), putting the engine-driven serving path
// on the same scrape as the socket server. Counters() stays a thin view
// over the same storage.
func (s *Server) RegisterMetrics(reg *obs.Registry, prefix string) error {
	return s.counters.Register(reg, prefix)
}

// account records one engine run's traffic in the shared counters.
func (s *Server) account(blocks int64) {
	s.counters.AddEncoded(blocks)
	s.counters.AddOffered(blocks)
	s.counters.AddSent(blocks, blocks*int64(s.scenario.Params.BlockSize))
}

// Metrics reports one serving run.
type Metrics struct {
	Engine     string
	EncodeMBps float64

	SegmentsServed   int
	BlocksPerSegment int
	BlocksTotal      int64

	PeersRequested int
	// PeersByCompute / PeersByNetwork / PeersServed are the scenario
	// capacities at the measured encode rate.
	PeersByCompute int
	PeersByNetwork int
	PeersServed    int

	// EncoderUtilization is the encode time per segment divided by the
	// segment's media duration: ≤ 1 means the engine keeps up live.
	EncoderUtilization float64
	RealTime           bool

	// NICUtilization is the requested peers' aggregate stream rate over
	// the NIC capacity.
	NICUtilization float64

	// SampleVerified reports that a sample client decoded a served segment
	// bit-exactly.
	SampleVerified bool
}

// ServeLive streams every segment to the requested peer population: each
// segment must yield peers×n coded blocks within its media duration (the
// paper's "at least 177,333 coded blocks from every video segment" at
// ≈1385 peers).
func (s *Server) ServeLive(peers int, seed int64) (*Metrics, error) {
	if peers <= 0 {
		return nil, fmt.Errorf("stream: peer count %d must be positive", peers)
	}
	n := s.scenario.Params.BlockCount
	blocksPerSegment := peers * n

	m := &Metrics{
		Engine:           s.encoder.Name(),
		SegmentsServed:   len(s.object.Segments),
		BlocksPerSegment: blocksPerSegment,
		PeersRequested:   peers,
	}

	var totalSeconds float64
	for i, seg := range s.object.Segments {
		rep, err := s.encoder.EncodeBlocks(seg, blocksPerSegment, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("stream: segment %d: %w", seg.ID(), err)
		}
		totalSeconds += rep.Seconds
		m.BlocksTotal += int64(blocksPerSegment)
		s.account(int64(blocksPerSegment))
	}
	totalBytes := m.BlocksTotal * int64(s.scenario.Params.BlockSize)
	if totalSeconds > 0 {
		m.EncodeMBps = float64(totalBytes) / totalSeconds / 1e6
	}

	duration := s.scenario.SegmentDuration()
	if duration > 0 {
		perSegment := totalSeconds / float64(len(s.object.Segments))
		m.EncoderUtilization = perSegment / duration
	}
	m.RealTime = m.EncoderUtilization <= 1

	m.PeersByCompute = s.scenario.PeersByCompute(m.EncodeMBps)
	m.PeersByNetwork = s.scenario.PeersByNetwork()
	m.PeersServed = s.scenario.PeersServed(m.EncodeMBps)
	m.NICUtilization = float64(peers) * s.scenario.StreamRateKbps * 1000 /
		(float64(s.scenario.NICCount) * s.scenario.NICCapacityMBps * 1e6 * 8)

	verified, err := s.verifySampleClient(seed ^ 0x5DEECE66D)
	if err != nil {
		return nil, err
	}
	m.SampleVerified = verified
	return m, nil
}

// ServeVoD serves clients that each request a different segment (the
// Sec. 5.1.3 VoD experiment: n coded blocks per request, preprocessing paid
// per segment).
func (s *Server) ServeVoD(clients int, seed int64) (*Metrics, error) {
	if clients <= 0 {
		return nil, fmt.Errorf("stream: client count %d must be positive", clients)
	}
	n := s.scenario.Params.BlockCount
	m := &Metrics{
		Engine:           s.encoder.Name(),
		BlocksPerSegment: n,
		PeersRequested:   clients,
	}
	var totalSeconds float64
	for c := 0; c < clients; c++ {
		seg := s.object.Segments[c%len(s.object.Segments)]
		rep, err := s.encoder.EncodeBlocks(seg, n, seed+int64(c))
		if err != nil {
			return nil, fmt.Errorf("stream: client %d: %w", c, err)
		}
		totalSeconds += rep.Seconds
		m.BlocksTotal += int64(n)
		m.SegmentsServed++
		s.account(int64(n))
	}
	totalBytes := m.BlocksTotal * int64(s.scenario.Params.BlockSize)
	if totalSeconds > 0 {
		m.EncodeMBps = float64(totalBytes) / totalSeconds / 1e6
	}
	m.PeersByCompute = s.scenario.PeersByCompute(m.EncodeMBps)
	m.PeersByNetwork = s.scenario.PeersByNetwork()
	m.PeersServed = s.scenario.PeersServed(m.EncodeMBps)

	verified, err := s.verifySampleClient(seed ^ 0x2545F491)
	if err != nil {
		return nil, err
	}
	m.SampleVerified = verified
	return m, nil
}

// verifySampleClient plays one downstream peer: it obtains slightly more
// than n engine-produced coded blocks for segment 0 and decodes them,
// proving the serving path delivers decodable data.
func (s *Server) verifySampleClient(seed int64) (bool, error) {
	seg := s.object.Segments[0]
	n := s.scenario.Params.BlockCount

	if mt, ok := s.encoder.(materializer); ok {
		mt.SetMaterialize(n + 2)
		defer mt.SetMaterialize(0)
	}
	rep, err := s.encoder.EncodeBlocks(seg, n+2, seed)
	if err != nil {
		return false, fmt.Errorf("stream: sample client encode: %w", err)
	}
	if len(rep.Blocks) < n {
		return false, fmt.Errorf("stream: engine materialized %d blocks, need %d for verification", len(rep.Blocks), n)
	}
	dec, err := rlnc.NewDecoder(s.scenario.Params)
	if err != nil {
		return false, err
	}
	// The sample client holds its whole download.
	if _, err := dec.AddBlocks(rep.Blocks); err != nil {
		return false, err
	}
	got, err := dec.Segment()
	if err != nil {
		return false, fmt.Errorf("stream: sample client decode: %w", err)
	}
	if !got.Equal(seg) {
		return false, fmt.Errorf("stream: sample client decoded corrupt segment")
	}
	return true, nil
}
