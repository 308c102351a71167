package netio

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extremenc/internal/rlnc"
)

// dribbleServer serves the object over l a few records at a time: each
// accepted session gets the handshake plus recordsPerSession dense records,
// then a hangup — a server no single session can finish against. Session i
// is seeded distinctly so every session pushes fresh combinations.
func dribbleServer(t *testing.T, l net.Listener, obj *rlnc.Object, recordsPerSession int) {
	t.Helper()
	go func() {
		for session := 0; ; session++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			h := SessionInfo{Params: obj.Params, Segments: len(obj.Segments), Length: int64(obj.Length)}
			if _, err := conn.Write(appendSessionHeader(nil, handshake{hdr: h})); err != nil {
				conn.Close()
				continue
			}
			rng := rand.New(rand.NewSource(int64(session)*7919 + 11))
			encs := make([]*rlnc.Encoder, len(obj.Segments))
			for i, seg := range obj.Segments {
				encs[i] = rlnc.NewEncoder(seg, rng)
			}
			for r := 0; r < recordsPerSession; r++ {
				rec, err := FrameRecord(encs[r%len(encs)].NextBlock(), ModeDense)
				if err != nil {
					break
				}
				if _, err := conn.Write(rec); err != nil {
					break
				}
			}
			conn.Close()
		}
	}()
}

// TestFetchFollowsDialTargetMidFetch: a leaf fetches through a dial function
// pointed at a server that dies mid-transfer; the control plane (here: the
// test; in a mesh, the coordinator) re-points the dial at a healthy server
// declaring the same session, and the same fetch must complete byte-identical
// with the rank accumulated on the first server carried over.
func TestFetchFollowsDialTargetMidFetch(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 3*p.SegmentSize()-5, 41)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}

	// Server A: dribbles 4 records per session, so no session against it can
	// decode 3 segments of 8 blocks each.
	la, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	dribbleServer(t, la, obj, 4)

	// Server B: a full pump server over the same object.
	cfg := DefaultServerConfig()
	cfg.Seed = 9
	srvB, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	defer stopServe()
	go srvB.Serve(serveCtx, lb)
	defer srvB.Shutdown()

	var target atomic.Value
	target.Store(la.Addr().String())
	dial := func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", target.Load().(string))
	}
	var tapped atomic.Int64
	rerouted := make(chan struct{})
	var rerouteOnce atomic.Bool
	fcfg := DefaultFetcherConfig()
	fcfg.BackoffBase = time.Millisecond
	fcfg.BackoffMax = 20 * time.Millisecond
	fcfg.Seed = 3
	fcfg.RecordTap = func(b *rlnc.CodedBlock) {
		if b.Validate(p) != nil {
			t.Error("tap saw a block that does not validate")
		}
		// Once the leaf has real progress against A, kill A and hand the
		// fetcher a fresh dial target — the remediation path in miniature.
		if tapped.Add(1) == 6 && rerouteOnce.CompareAndSwap(false, true) {
			la.Close()
			target.Store(lb.Addr().String())
			close(rerouted)
		}
	}
	f := newTestFetcher(t, dial, fcfg)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("rerouted fetch failed: %v (stats %+v)", err, res.Stats)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload not byte-identical after reroute")
	}
	select {
	case <-rerouted:
	default:
		t.Fatal("fetch completed without ever being rerouted")
	}
	if res.Stats.Reconnects == 0 {
		t.Fatal("reroute happened without a reconnect")
	}
	if res.Stats.ResumedRank == 0 {
		t.Fatal("reroute carried no rank: leaf restarted from scratch")
	}
	if int64(res.Stats.Records) != tapped.Load() {
		t.Fatalf("tap saw %d records, fetch absorbed %d", tapped.Load(), res.Stats.Records)
	}
}

// TestSessionHookSeesDeclaredInfo: the session hook must fire on every
// successful handshake with exactly the SessionInfo the server declares.
func TestSessionHookSeesDeclaredInfo(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize()-9, 17)
	cfg := DefaultServerConfig()
	cfg.Mode = ModeSystematic
	cfg.Seed = 5
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	go srv.Serve(context.Background(), l)
	defer func() {
		srv.Shutdown()
		l.Close()
	}()

	var infos []SessionInfo
	fcfg := DefaultFetcherConfig()
	fcfg.SessionHook = func(si SessionInfo) { infos = append(infos, si) }
	fcfg.MaxAttempts = 1
	f := newTestFetcher(t, func(ctx context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
	res, err := f.Fetch(context.Background())
	if err != nil {
		t.Fatalf("fetch: %v (stats %+v)", err, res.Stats)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload differs")
	}
	if len(infos) != 1 {
		t.Fatalf("session hook fired %d times, want 1", len(infos))
	}
	if infos[0] != srv.Info() {
		t.Fatalf("hook info %+v != server info %+v", infos[0], srv.Info())
	}
	if err := infos[0].Validate(); err != nil {
		t.Fatalf("hooked info does not validate: %v", err)
	}
}

// poolSource is a minimal out-of-package-style RecordSource: a fixed
// pre-encoded pool of dense records per segment. Its sweep is each segment's
// first n records, and Records hands out the rest cyclically, from the n-th.
type poolSource struct {
	info SessionInfo
	recs [][][]byte // [segment][record]
	next []int
}

func newPoolSource(t *testing.T, obj *rlnc.Object, perSeg int) *poolSource {
	t.Helper()
	src := &poolSource{
		info: SessionInfo{Params: obj.Params, Segments: len(obj.Segments), Length: int64(obj.Length)},
		recs: make([][][]byte, len(obj.Segments)),
		next: make([]int, len(obj.Segments)),
	}
	rng := rand.New(rand.NewSource(71))
	for i, seg := range obj.Segments {
		enc := rlnc.NewEncoder(seg, rng)
		for r := 0; r < perSeg; r++ {
			rec, err := FrameRecord(enc.NextBlock(), src.info.Mode)
			if err != nil {
				t.Fatal(err)
			}
			src.recs[i] = append(src.recs[i], rec)
		}
		src.next[i] = obj.Params.BlockCount
	}
	return src
}

// newPoolServer is a server over a poolSource of media split at p, 2n records
// a segment: a session reads its sweep, n XNC1 records a segment, and what it
// asks for then is the pump's — the shape the credit and park tests need.
func newPoolServer(t *testing.T, media []byte, p rlnc.Params, cfg ServerConfig) *Server {
	t.Helper()
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewSourceServerFromConfig(newPoolSource(t, obj, 2*p.BlockCount), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func (s *poolSource) Info() SessionInfo { return s.info }

func (s *poolSource) CounterKey() (uint64, bool) { return 0, false }

// Sweep: the pool's first n records of the segment.
func (s *poolSource) Sweep(seg, i int) []byte { return s.recs[seg][i] }

func (s *poolSource) Records(seg int, frames [][]byte) int {
	for i, frame := range frames {
		frames[i] = frame[:copy(frame, s.recs[seg][s.next[seg]%len(s.recs[seg])])]
		s.next[seg]++
	}
	return len(frames)
}

// fillingSource is a poolSource that holds, for its sweep, only the first held
// records of every segment until a test lets more in: a relay still filling.
// Arrived's channel is closed by the next let.
type fillingSource struct {
	*poolSource
	mu      sync.Mutex
	held    int
	arrived chan struct{}
}

func (s *fillingSource) Sweep(seg, i int) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i >= s.held {
		return nil
	}
	return s.poolSource.Sweep(seg, i)
}

func (s *fillingSource) Arrived() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.arrived == nil {
		s.arrived = make(chan struct{})
	}
	return s.arrived
}

// let has the source hold k more records of every segment.
func (s *fillingSource) let(k int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.held += k
	if s.arrived != nil {
		close(s.arrived)
		s.arrived = nil
	}
}

// TestSourceServer: a server over an arbitrary RecordSource must drive a
// stock fetcher to a byte-identical object through the same pump machinery.
func TestSourceServer(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 2*p.SegmentSize()-3, 23)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewSourceServerFromConfig(newPoolSource(t, obj, 2*p.BlockCount), DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	go srv.Serve(context.Background(), l)
	defer func() {
		srv.Shutdown()
		l.Close()
	}()

	payload, stats, err := Fetch(context.Background(), l.Dial())
	if err != nil {
		t.Fatalf("fetch from source server: %v (stats %+v)", err, stats)
	}
	if !bytes.Equal(payload, media) {
		t.Fatal("payload differs through the source server")
	}
}
