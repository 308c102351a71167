package extremenc_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"extremenc"
)

// chanListener adapts net.Pipe connections into a net.Listener so facade
// servers can be driven entirely in memory.
type chanListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func (l *chanListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *chanListener) Close() error { l.once.Do(func() { close(l.done) }); return nil }

type chanListenerAddr struct{}

func (chanListenerAddr) Network() string { return "pipe" }
func (chanListenerAddr) String() string  { return "pipe" }

func (l *chanListener) Addr() net.Addr { return chanListenerAddr{} }

// pipeServer serves srv over an in-memory listener for the test's lifetime
// and returns a dialer handing out fresh client sessions.
func pipeServer(t *testing.T, srv *extremenc.NetServer) func() net.Conn {
	t.Helper()
	l := &chanListener{conns: make(chan net.Conn), done: make(chan struct{})}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), l) }()
	t.Cleanup(func() {
		srv.Shutdown()
		l.Close()
		<-serveDone
	})
	return func() net.Conn {
		client, server := net.Pipe()
		select {
		case l.conns <- server:
			return client
		case <-l.done:
			client.Close()
			server.Close()
			return nil
		}
	}
}

// TestQuickstart exercises the documented public-API flow end to end.
func TestQuickstart(t *testing.T) {
	params := extremenc.Params{BlockCount: 16, BlockSize: 256}
	payload := make([]byte, params.SegmentSize())
	rng := rand.New(rand.NewSource(1))
	rng.Read(payload)

	seg, err := extremenc.SegmentFromData(0, params, payload)
	if err != nil {
		t.Fatal(err)
	}
	enc := extremenc.NewEncoder(seg, rng)
	dec, err := extremenc.NewDecoder(params)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Ready() {
		if _, err := dec.AddBlock(enc.NextBlock()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data(), payload) {
		t.Fatal("quickstart roundtrip differs")
	}
}

// TestRecodePath exercises encode → recode → decode via the facade.
func TestRecodePath(t *testing.T) {
	params := extremenc.Params{BlockCount: 8, BlockSize: 64}
	rng := rand.New(rand.NewSource(2))
	payload := make([]byte, params.SegmentSize())
	rng.Read(payload)
	seg, err := extremenc.SegmentFromData(3, params, payload)
	if err != nil {
		t.Fatal(err)
	}
	enc := extremenc.NewEncoder(seg, rng)
	rec, err := extremenc.NewRecoder(params)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < params.BlockCount+1; i++ {
		if err := rec.Add(enc.NextBlock()); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := extremenc.NewDecoder(params)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Ready() {
		b, err := rec.NextBlock(rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("recode path roundtrip differs")
	}
}

// TestSimulatedDevices exercises the GPU and CPU testbed facade.
func TestSimulatedDevices(t *testing.T) {
	gpuEnc, err := extremenc.NewGPUEncoder(extremenc.GTX280(), extremenc.TableBased5)
	if err != nil {
		t.Fatal(err)
	}
	params := extremenc.Params{BlockCount: 16, BlockSize: 512}
	seg, err := extremenc.NewSegment(0, params)
	if err != nil {
		t.Fatal(err)
	}
	rand.New(rand.NewSource(4)).Read(seg.Data())
	rep, err := gpuEnc.EncodeBlocks(seg, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BandwidthMBps() <= 0 {
		t.Fatal("no GPU bandwidth")
	}
	dec, err := extremenc.NewGPUMultiDecoder(extremenc.GTX280(), 2)
	if err != nil {
		t.Fatal(err)
	}
	set := rep.Blocks
	if len(set) < params.BlockCount {
		// Engines materialize a sample; collect a decodable set directly.
		gpuEnc.SetMaterialize(params.BlockCount + 1)
		rep, err = gpuEnc.EncodeBlocks(seg, params.BlockCount+1, 6)
		if err != nil {
			t.Fatal(err)
		}
		set = rep.Blocks
	}
	drep, err := dec.DecodeSegments([][]*extremenc.CodedBlock{set}, params)
	if err != nil {
		t.Fatal(err)
	}
	if !drep.Segments[0].Equal(seg) {
		t.Fatal("GPU multi decode differs")
	}
}

// TestStreamAndP2PFacade smoke-tests the deployment components.
func TestStreamAndP2PFacade(t *testing.T) {
	scenario := extremenc.DefaultStreamScenario()
	scenario.Params = extremenc.Params{BlockCount: 8, BlockSize: 512}
	enc, err := extremenc.NewGPUEncoder(extremenc.GTX280(), extremenc.TableBased5)
	if err != nil {
		t.Fatal(err)
	}
	media := make([]byte, scenario.Params.SegmentSize())
	rand.New(rand.NewSource(7)).Read(media)
	srv, err := extremenc.NewStreamServer(scenario, enc, media)
	if err != nil {
		t.Fatal(err)
	}
	m, err := srv.ServeLive(50, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !m.SampleVerified {
		t.Fatal("stream sample not verified")
	}

	res, err := extremenc.RunP2P(extremenc.P2PConfig{
		Params:           extremenc.Params{BlockCount: 8, BlockSize: 128},
		Peers:            6,
		Neighbors:        2,
		LinkBandwidthBps: 8e6,
		LinkLatency:      0.001,
		Mode:             extremenc.P2PModeRLNC,
		Seed:             9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 6 {
		t.Fatalf("p2p completed %d/6", res.Completed)
	}
}

// TestExtendedCodecFacade exercises the systematic path through the public
// API.
func TestExtendedCodecFacade(t *testing.T) {
	params := extremenc.Params{BlockCount: 8, BlockSize: 64}
	rng := rand.New(rand.NewSource(20))
	payload := make([]byte, params.SegmentSize())
	rng.Read(payload)
	seg, err := extremenc.SegmentFromData(0, params, payload)
	if err != nil {
		t.Fatal(err)
	}

	// Systematic encoder feeding the decoder.
	se := extremenc.NewSystematicEncoder(seg, rng)
	ge, err := extremenc.NewDecoder(params)
	if err != nil {
		t.Fatal(err)
	}
	for !ge.Ready() {
		b, err := se.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ge.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ge.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("systematic roundtrip differs")
	}
}

// TestSystematicXorFacade exercises the systematic + XOR fast-path surface
// through the public API: the XOR kernels, the encoder repair-schedule
// options, wire-mode parsing, and a systematic-mode fetch over a pipe.
func TestSystematicXorFacade(t *testing.T) {
	// Kernels: XorSlice4 must equal four sequential XorSlice folds.
	rng := rand.New(rand.NewSource(23))
	srcs := make([][]byte, 4)
	for i := range srcs {
		srcs[i] = make([]byte, 257)
		rng.Read(srcs[i])
	}
	a, b := make([]byte, 257), make([]byte, 257)
	rng.Read(a)
	copy(b, a)
	extremenc.XorSlice4(a, srcs[0], srcs[1], srcs[2], srcs[3])
	for _, s := range srcs {
		extremenc.XorSlice(b, s)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("XorSlice4 disagrees with sequential XorSlice")
	}

	// Wire-mode spelling round-trips.
	for _, m := range []extremenc.WireMode{extremenc.ModeDense, extremenc.ModeSystematic} {
		got, err := extremenc.ParseWireMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseWireMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := extremenc.ParseWireMode("turbo"); err == nil {
		t.Fatal("unknown wire mode accepted")
	}

	// A tuned systematic encoder feeding a plain decoder.
	params := extremenc.Params{BlockCount: 8, BlockSize: 64}
	payload := make([]byte, params.SegmentSize())
	rng.Read(payload)
	seg, err := extremenc.SegmentFromData(0, params, payload)
	if err != nil {
		t.Fatal(err)
	}
	se := extremenc.NewSystematicEncoder(seg, rng,
		extremenc.WithXorRepair(4), extremenc.WithDenseTail(2))
	dec, err := extremenc.NewDecoder(params)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !dec.Ready(); i++ {
		if i%3 == 1 { // drop a third of the stream to force repairs
			se.Block()
			continue
		}
		if _, err := dec.AddBlock(se.Block()); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("systematic + XOR roundtrip differs")
	}

	// Systematic-mode serving negotiated through the facade.
	scfg := extremenc.DefaultNetServerConfig()
	scfg.Mode = extremenc.ModeSystematic
	srv, err := extremenc.NewNetServerFromConfig(payload, params, scfg)
	if err != nil {
		t.Fatal(err)
	}
	dialPipe := pipeServer(t, srv)
	fcfg := extremenc.DefaultNetFetcherConfig()
	fcfg.MaxAttempts = 1
	f, err := extremenc.NewFetcherFromConfig(
		func(context.Context) (net.Conn, error) { return dialPipe(), nil }, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != extremenc.ModeSystematic {
		t.Fatalf("negotiated mode = %v, want systematic", res.Mode)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("systematic fetch payload differs")
	}
}

// TestFileAndNetFacade round-trips the container and socket paths.
func TestFileAndNetFacade(t *testing.T) {
	params := extremenc.Params{BlockCount: 8, BlockSize: 128}
	payload := make([]byte, 2*params.SegmentSize()-9)
	rand.New(rand.NewSource(21)).Read(payload)

	for _, seeded := range []bool{false, true} {
		var container bytes.Buffer
		if _, err := extremenc.EncodeFile(&container, bytes.NewReader(payload), params,
			extremenc.FileEncodeOptions{Seeded: seeded, Seed: 22}); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if _, err := extremenc.DecodeFile(&out, bytes.NewReader(container.Bytes())); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), payload) {
			t.Fatalf("file container roundtrip differs (seeded %v)", seeded)
		}
	}

	srv, err := extremenc.NewNetServerFromConfig(payload, params, extremenc.DefaultNetServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := extremenc.Fetch(context.Background(), pipeServer(t, srv)())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) || stats.Records == 0 {
		t.Fatal("network fetch differs")
	}
}

func TestExperimentsFacade(t *testing.T) {
	ids := extremenc.Experiments()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments listed", len(ids))
	}
	var sb strings.Builder
	if err := extremenc.RunExperiment("combined", &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "combined") {
		t.Fatal("experiment output missing")
	}
	if err := extremenc.RunExperiment("no-such", &sb); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPlaybackFacade(t *testing.T) {
	s := extremenc.DefaultStreamScenario()
	m, err := extremenc.SimulatePlayback(extremenc.PlaybackConfig{
		Scenario: s, EncodeMBps: 294, Peers: 100, SegmentCount: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Sustainable || m.Rebuffers != 0 {
		t.Fatalf("light load should be smooth: %+v", m)
	}
	if extremenc.MaxSmoothPeers(s, 294) <= 0 {
		t.Fatal("smooth-peer limit not positive")
	}
}

// TestSentinelErrorsFacade branches on re-exported sentinels via errors.Is.
func TestSentinelErrorsFacade(t *testing.T) {
	if _, err := extremenc.NewDecoder(extremenc.Params{}); !errors.Is(err, extremenc.ErrInvalidParams) {
		t.Fatalf("NewDecoder: %v, want ErrInvalidParams", err)
	}
	if _, err := extremenc.NewParallelEncoder(0, extremenc.FullBlock); !errors.Is(err, extremenc.ErrWorkerCount) {
		t.Fatalf("NewParallelEncoder: %v, want ErrWorkerCount", err)
	}
	if _, err := extremenc.NewParallelEncoder(1, extremenc.EncodeMode(99)); !errors.Is(err, extremenc.ErrEncodeMode) {
		t.Fatalf("NewParallelEncoder: %v, want ErrEncodeMode", err)
	}
	p := extremenc.Params{BlockCount: 4, BlockSize: 16}
	if _, err := extremenc.SegmentFromData(0, p, make([]byte, p.SegmentSize()+1)); !errors.Is(err, extremenc.ErrDataTooLarge) {
		t.Fatalf("SegmentFromData: %v, want ErrDataTooLarge", err)
	}
	seg, err := extremenc.SegmentFromData(0, p, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	enc := extremenc.NewEncoder(seg, rand.New(rand.NewSource(7)))
	if _, err := enc.BlockFor(make([]byte, p.BlockCount+1)); !errors.Is(err, extremenc.ErrCoeffsMismatch) {
		t.Fatalf("BlockFor: %v, want ErrCoeffsMismatch", err)
	}
	dec, err := extremenc.NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Segment(); !errors.Is(err, extremenc.ErrNotReady) {
		t.Fatalf("Segment: %v, want ErrNotReady", err)
	}
	if _, err := dec.AddBlock(&extremenc.CodedBlock{}); !errors.Is(err, extremenc.ErrBlockShape) {
		t.Fatalf("AddBlock: %v, want ErrBlockShape", err)
	}
	rec, err := extremenc.NewRecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Emit(); !errors.Is(err, extremenc.ErrNoSeed) {
		t.Fatalf("Emit without seed: %v, want ErrNoSeed", err)
	}
	seeded, err := extremenc.NewRecoder(p, extremenc.WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seeded.Emit(); !errors.Is(err, extremenc.ErrNoBlocks) {
		t.Fatalf("Emit without input: %v, want ErrNoBlocks", err)
	}
}

// TestCodecOptionsFacade exercises the unified constructor options.
func TestCodecOptionsFacade(t *testing.T) {
	p := extremenc.Params{BlockCount: 8, BlockSize: 64}
	payload := make([]byte, p.SegmentSize())
	rng := rand.New(rand.NewSource(11))
	rng.Read(payload)
	seg, err := extremenc.SegmentFromData(0, p, payload)
	if err != nil {
		t.Fatal(err)
	}
	enc := extremenc.NewEncoder(seg, rng)

	// A recoder with its own seed emits decodable recombinations via Emit.
	rec, err := extremenc.NewRecoder(p, extremenc.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.BlockCount; i++ {
		if err := rec.Add(enc.NextBlock()); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := extremenc.NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Ready() {
		blk, err := rec.Emit()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.AddBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("recoded segment differs")
	}
}

// TestServingFacade runs the session server end to end through the facade:
// ctx-driven Serve, a tuned config, Fetch with context, and the metrics
// snapshot.
func TestServingFacade(t *testing.T) {
	p := extremenc.Params{BlockCount: 8, BlockSize: 256}
	payload := make([]byte, 2*p.SegmentSize()-31)
	rand.New(rand.NewSource(23)).Read(payload)
	scfg := extremenc.DefaultNetServerConfig()
	scfg.QueueDepth = 32
	scfg.WriteDeadline = 2 * time.Second
	scfg.Seed = 99
	srv, err := extremenc.NewNetServerFromConfig(payload, p, scfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, l) }()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := extremenc.Fetch(context.Background(), conn)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("served payload differs")
	}

	cancel()
	select {
	case err := <-serveDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancel")
	}
	snap := srv.Snapshot()
	if snap.SessionsTotal != 1 || snap.BlocksSent == 0 {
		t.Fatalf("snapshot = %+v, want 1 session with traffic", snap)
	}
	if snap.BlocksOffered != snap.BlocksSent+snap.BlocksShed {
		t.Fatalf("accounting: offered %d != sent %d + shed %d",
			snap.BlocksOffered, snap.BlocksSent, snap.BlocksShed)
	}
}

// TestConfigAPIFacade exercises the config-struct construction surface
// through the facade: a server and a fetcher built from config structs, the
// versioned snapshot, and Validate failures surfacing through the
// constructors.
func TestConfigAPIFacade(t *testing.T) {
	p := extremenc.Params{BlockCount: 8, BlockSize: 256}
	payload := make([]byte, 2*p.SegmentSize()-19)
	rand.New(rand.NewSource(41)).Read(payload)

	scfg := extremenc.DefaultNetServerConfig()
	scfg.Seed = 7
	scfg.WriteDeadline = 2 * time.Second
	if err := scfg.Validate(); err != nil {
		t.Fatal(err)
	}
	srv, err := extremenc.NewNetServerFromConfig(payload, p, scfg)
	if err != nil {
		t.Fatal(err)
	}
	dialPipe := pipeServer(t, srv)

	fcfg := extremenc.DefaultNetFetcherConfig()
	fcfg.MaxAttempts = 2
	f, err := extremenc.NewFetcherFromConfig(
		func(context.Context) (net.Conn, error) { return dialPipe(), nil }, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("config-built fetch payload differs")
	}

	// The offered == sent + shed ledger is exact only after teardown;
	// Shutdown is idempotent, so the pipeServer cleanup re-running it is
	// fine.
	srv.Shutdown()
	snap := srv.Snapshot()
	if snap.Version != extremenc.NetSnapshotVersion {
		t.Fatalf("snapshot version = %d, want %d", snap.Version, extremenc.NetSnapshotVersion)
	}
	if !snap.Consistent() || snap.BlocksOffered == 0 {
		t.Fatalf("ledger: offered %d != sent %d + shed %d",
			snap.BlocksOffered, snap.BlocksSent, snap.BlocksShed)
	}

	// Validate failures surface through the FromConfig constructors.
	if _, err := extremenc.NewNetServerFromConfig(payload, p,
		extremenc.NetServerConfig{Mode: 9}); err == nil {
		t.Fatal("NewNetServerFromConfig accepted an unknown wire mode")
	}
	if _, err := extremenc.NewFetcherFromConfig(
		func(context.Context) (net.Conn, error) { return nil, context.Canceled },
		extremenc.NetFetcherConfig{MaxAttempts: -1}); err == nil {
		t.Fatal("NewFetcherFromConfig accepted a negative attempt budget")
	}
}

// TestResilientFetchFacade drives a Fetcher through a fault-injected link
// via the public API: the fetch must survive injected resets without losing
// decoder rank and deliver a byte-identical payload.
func TestResilientFetchFacade(t *testing.T) {
	p := extremenc.Params{BlockCount: 8, BlockSize: 64}
	payload := make([]byte, 3*p.SegmentSize()-5)
	rand.New(rand.NewSource(31)).Read(payload)
	srv, err := extremenc.NewNetServerFromConfig(payload, p, extremenc.DefaultNetServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go srv.Serve(ctx, l)
	defer srv.Shutdown()

	dial, faults := extremenc.FaultyDialer(extremenc.FaultConfig{
		Seed:       77,
		ResetEvery: 700,
	}, func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", l.Addr().String())
	})
	fcfg := extremenc.DefaultNetFetcherConfig()
	fcfg.BackoffBase, fcfg.BackoffMax = time.Millisecond, 5*time.Millisecond
	fcfg.Seed = 1
	f, err := extremenc.NewFetcherFromConfig(dial, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	fetchCtx, cancelFetch := context.WithTimeout(context.Background(), time.Minute)
	defer cancelFetch()
	res, err := f.Fetch(fetchCtx)
	if err != nil {
		t.Fatalf("resilient fetch: %v (faults %+v)", err, faults.View())
	}
	if !bytes.Equal(res.Payload, payload) {
		t.Fatal("resilient fetch payload differs")
	}
	if faults.View().Resets == 0 {
		t.Fatal("fault layer injected no resets")
	}
	if res.Stats.Reconnects == 0 || res.Stats.ResumedRank == 0 {
		t.Fatalf("no rank carried across reconnects: %+v", res.Stats)
	}

	// A damaged resume blob is rejected with the facade sentinel.
	fcfg.ResumeState = []byte("junk")
	junk, err := extremenc.NewFetcherFromConfig(dial, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := junk.Fetch(context.Background()); !errors.Is(err, extremenc.ErrBadResumeState) {
		t.Fatalf("err = %v, want ErrBadResumeState", err)
	}
}

// TestFetchCancelledFacade: a cancelled context unblocks a pending fetch.
func TestFetchCancelledFacade(t *testing.T) {
	client, server := net.Pipe()
	defer server.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := extremenc.Fetch(ctx, client)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Fetch did not unblock on cancel")
	}
}
