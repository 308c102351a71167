package netio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"extremenc/internal/rlnc"
)

// pipeListener turns net.Pipe connections into a net.Listener so the
// session server can be driven entirely in memory.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

// Dial hands the server side of a fresh pipe to Accept and returns the
// client side.
func (l *pipeListener) Dial() net.Conn {
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

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

type pipeListenerAddr struct{}

func (pipeListenerAddr) Network() string { return "pipe" }
func (pipeListenerAddr) String() string  { return "pipe" }

func (l *pipeListener) Addr() net.Addr { return pipeListenerAddr{} }

// serveOn serves srv on l for the lifetime of the test, shutting both down at
// cleanup.
func serveOn(t testing.TB, srv *Server, l net.Listener) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), l) }()
	t.Cleanup(func() {
		srv.Shutdown()
		l.Close()
		<-done
	})
}

// startPipeServer serves srv on a fresh in-memory listener for the lifetime
// of the test. Sessions come from l.Dial().
func startPipeServer(t testing.TB, srv *Server) *pipeListener {
	t.Helper()
	l := newPipeListener()
	serveOn(t, srv, l)
	return l
}

// newTestFetcher builds a Fetcher from cfg, failing the test on a config
// NewFetcherFromConfig rejects.
func newTestFetcher(t testing.TB, dial DialFunc, cfg FetcherConfig) *Fetcher {
	t.Helper()
	f, err := NewFetcherFromConfig(dial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// checkAccounting asserts the snapshot's core invariant once all sessions
// have ended: every offered block was either fully written or shed.
func checkAccounting(t *testing.T, snap Snapshot) {
	t.Helper()
	if snap.Sessions != 0 {
		t.Fatalf("still %d live sessions", snap.Sessions)
	}
	if !snap.Consistent() {
		t.Fatalf("accounting: offered %d != sent %d + shed %d",
			snap.BlocksOffered, snap.BlocksSent, snap.BlocksShed)
	}
}

// TestServeSlowAndFailingClients is the loss-injection harness of the
// serving layer: over in-memory pipes, two healthy clients fetch while one
// client stalls mid-transfer (stops reading without closing) and one
// disconnects abruptly. The healthy fetches must finish, the stalled
// session must be dropped by the write-deadline budget with its queue shed,
// and the counters must account for every block.
func TestServeSlowAndFailingClients(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 256}
	media := testMedia(t, 2*p.SegmentSize()-17, 7)
	cfg := DefaultServerConfig()
	cfg.QueueDepth = 8
	cfg.WriteDeadline = 100 * time.Millisecond
	cfg.Seed = 1234
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), l) }()

	var wg sync.WaitGroup
	healthyErr := make([]error, 2)
	for i := range healthyErr {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn := l.Dial()
			payload, _, err := Fetch(context.Background(), conn)
			if err != nil {
				healthyErr[i] = err
				return
			}
			if !bytes.Equal(payload, media) {
				healthyErr[i] = errors.New("payload differs")
			}
		}(i)
	}

	// The staller: reads the handshake, then stops reading entirely. Over a
	// synchronous pipe the server's first record write blocks immediately,
	// so the write-deadline budget (50ms + one retry) must fire, the session
	// must be dropped with its queue shed, and the connection closed.
	stallerDropped := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := l.Dial()
		defer conn.Close()
		if _, err := readHandshake(conn); err != nil {
			t.Errorf("staller handshake: %v", err)
			return
		}
		// Stall well past the deadline budget without consuming a byte.
		time.Sleep(500 * time.Millisecond)
		// The server must have hung up by now; confirm without a fresh
		// record ever arriving.
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		one := make([]byte, 1)
		for {
			if _, err := conn.Read(one); err != nil {
				close(stallerDropped)
				return
			}
		}
	}()

	// The quitter: reads the handshake and disconnects immediately.
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn := l.Dial()
		readHandshake(conn) //nolint:errcheck
		conn.Close()
	}()

	wg.Wait()
	for i, err := range healthyErr {
		if err != nil {
			t.Fatalf("healthy client %d: %v", i, err)
		}
	}
	select {
	case <-stallerDropped:
	default:
		t.Fatal("stalled session was not dropped by the deadline budget")
	}

	srv.Shutdown()
	l.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	snap := srv.Snapshot()
	checkAccounting(t, snap)
	if snap.SessionsTotal != 4 {
		t.Fatalf("sessions_total = %d, want 4", snap.SessionsTotal)
	}
	if snap.BlocksShed == 0 {
		t.Fatal("no blocks shed despite a stalled and a failed client")
	}
	if snap.BlocksSent == 0 {
		t.Fatal("no blocks sent")
	}
}

// TestServeAcceptance64Clients is the acceptance harness: a 64-client
// loopback serve with 2 deliberately slow readers. The 62 healthy clients
// must complete, no single encoder stall may exceed 100ms, and the snapshot
// must account for every block sent or shed.
func TestServeAcceptance64Clients(t *testing.T) {
	if testing.Short() {
		t.Skip("64-client serve in -short mode")
	}
	p := rlnc.Params{BlockCount: 8, BlockSize: 256}
	media := testMedia(t, 2*p.SegmentSize(), 8)
	cfg := DefaultServerConfig()
	cfg.QueueDepth = 32
	cfg.WriteDeadline = 400 * time.Millisecond
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), l) }()

	const (
		healthy = 62
		slow    = 2
	)
	var wg sync.WaitGroup
	errs := make([]error, healthy)
	for i := 0; i < healthy; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				errs[i] = err
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			payload, _, err := Fetch(ctx, conn)
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(payload, media) {
				errs[i] = fmt.Errorf("client %d: payload differs", i)
			}
		}(i)
	}
	// Slow readers: connect, read the handshake, then go silent. Their TCP
	// buffers fill, the write deadline fires, and the sessions are dropped
	// without ever stalling the shared encoder.
	slowConns := make([]net.Conn, 0, slow)
	for i := 0; i < slow; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		slowConns = append(slowConns, conn)
		if _, err := readHandshake(conn); err != nil {
			t.Fatalf("slow reader %d handshake: %v", i, err)
		}
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("healthy client %d: %v", i, err)
		}
	}
	for _, conn := range slowConns {
		conn.Close()
	}
	srv.Shutdown()
	l.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	snap := srv.Snapshot()
	checkAccounting(t, snap)
	if snap.SessionsTotal != healthy+slow {
		t.Fatalf("sessions_total = %d, want %d", snap.SessionsTotal, healthy+slow)
	}
	if snap.MaxEncodeStall > 100*time.Millisecond {
		t.Fatalf("encoder stalled %v (> 100ms) with healthy clients present", snap.MaxEncodeStall)
	}
	if snap.BlocksSent == 0 || snap.BytesSent == 0 {
		t.Fatalf("no traffic recorded: %+v", snap)
	}
}

// TestServeSessionCap: connections beyond MaxSessions are rejected and
// counted, while the admitted session still completes.
func TestServeSessionCap(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, p.SegmentSize(), 9)
	cfg := DefaultServerConfig()
	cfg.MaxSessions = 1
	cfg.WriteDeadline = time.Second
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), l) }()

	// First client holds its session open mid-fetch while the second tries
	// to join and must be rejected at the door.
	first := l.Dial()
	if _, err := readHandshake(first); err != nil {
		t.Fatal(err)
	}
	// The session joins the fan-out set just after its handshake write
	// returns; wait for the registration before probing the cap.
	for deadline := time.Now().Add(5 * time.Second); srv.Snapshot().Sessions == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first session never registered")
		}
		time.Sleep(time.Millisecond)
	}

	second := l.Dial()
	if _, _, err := Fetch(context.Background(), second); !errors.Is(err, ErrAdmissionBusy) {
		t.Fatalf("over-cap fetch: %v, want ErrAdmissionBusy", err)
	}
	first.Close()

	srv.Shutdown()
	l.Close()
	<-serveDone
	snap := srv.Snapshot()
	if snap.SessionsRejected != 1 {
		t.Fatalf("sessions_rejected = %d, want 1", snap.SessionsRejected)
	}
	if snap.SessionsTotal != 1 {
		t.Fatalf("sessions_total = %d, want 1", snap.SessionsTotal)
	}
}

// TestServeAfterShutdown: Serve on a shut-down server fails fast with
// ErrServerClosed.
func TestServeAfterShutdown(t *testing.T) {
	p := rlnc.Params{BlockCount: 4, BlockSize: 64}
	srv, err := NewServerFromConfig(testMedia(t, p.SegmentSize(), 10), p, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.Shutdown()
	l := newPipeListener()
	defer l.Close()
	if err := srv.Serve(context.Background(), l); !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve after Shutdown: %v, want ErrServerClosed", err)
	}
}

// TestServeContextCancel: cancelling the Serve context shuts the server
// down and live fetches fail instead of hanging. The sequence runs on events,
// not the clock: the first record to reach the fetcher cancels Serve, and the
// tap holds the fetcher on that record until Serve has returned — so the
// session is provably live at the cancel and the fetch provably unfinished
// after it, however fast the codec is.
func TestServeContextCancel(t *testing.T) {
	p := rlnc.Params{BlockCount: 64, BlockSize: 4096}
	media := testMedia(t, 4*p.SegmentSize(), 11)
	cfg := DefaultServerConfig()
	cfg.WriteDeadline = time.Second
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx, l) }()

	serveErr := make(chan error, 1)
	var first sync.Once
	tap := func(*rlnc.CodedBlock) {
		first.Do(func() {
			cancel()
			select {
			case err := <-serveDone:
				serveErr <- err
			case <-time.After(5 * time.Second):
				serveErr <- errors.New("Serve did not return after cancel")
			}
		})
	}
	conn := l.Dial()
	fcfg := DefaultFetcherConfig()
	fcfg.MaxAttempts = 1
	fcfg.RecordTap = tap
	f := newTestFetcher(t, func(context.Context) (net.Conn, error) { return conn, nil }, fcfg)
	fetchDone := make(chan error, 1)
	go func() {
		_, err := f.Fetch(context.Background())
		fetchDone <- err
	}()

	select {
	case err := <-serveErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Serve: %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no record reached the fetcher")
	}
	select {
	case err := <-fetchDone:
		if err == nil {
			t.Fatal("fetch succeeded against a server cancelled at its first record")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch did not unblock after server cancel")
	}
}

// TestFetchSentinels: the client-side protocol failures expose errors.Is
// sentinels.
func TestFetchSentinels(t *testing.T) {
	// Implausible record length after a valid header.
	client1, server1 := net.Pipe()
	go func() {
		server1.Write(appendSessionHeader(nil, handshake{hdr: SessionInfo{
			Params:   rlnc.Params{BlockCount: 4, BlockSize: 64},
			Segments: 1,
			Length:   256,
		}}))
		var lenBuf [4]byte
		binary.BigEndian.PutUint32(lenBuf[:], 64<<20+1)
		server1.Write(lenBuf[:])
		server1.Close()
	}()
	if _, _, err := Fetch(context.Background(), client1); !errors.Is(err, ErrRecordLength) {
		t.Fatalf("err = %v, want ErrRecordLength", err)
	}

	// Stream cut before full rank.
	client2, server2 := net.Pipe()
	go func() {
		server2.Write(appendSessionHeader(nil, handshake{hdr: SessionInfo{
			Params:   rlnc.Params{BlockCount: 4, BlockSize: 64},
			Segments: 1,
			Length:   256,
		}}))
		server2.Close()
	}()
	if _, _, err := Fetch(context.Background(), client2); !errors.Is(err, ErrStreamTruncated) {
		t.Fatalf("err = %v, want ErrStreamTruncated", err)
	}
}

// TestSnapshotDuringTraffic: Snapshot is safe and self-consistent while
// sessions are live, and per-session queue bounds are respected.
func TestSnapshotDuringTraffic(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 1024}
	media := testMedia(t, 2*p.SegmentSize(), 12)
	cfg := DefaultServerConfig()
	cfg.QueueDepth = 4
	cfg.WriteDeadline = time.Second
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), l) }()

	// A raw client keeps the session pinned open: it reads the handshake and
	// then records one at a time, so the session stays live for exactly as
	// long as the test wants to observe it.
	conn := l.Dial()
	if _, err := readHandshake(conn); err != nil {
		t.Fatal(err)
	}
	readRecord := func() {
		t.Helper()
		var lenBuf [4]byte
		if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
			t.Fatal(err)
		}
		rec := make([]byte, binary.BigEndian.Uint32(lenBuf[:]))
		if _, err := io.ReadFull(conn, rec); err != nil {
			t.Fatal(err)
		}
	}

	for deadline := time.Now().Add(5 * time.Second); srv.Snapshot().Sessions == 0; {
		if time.Now().After(deadline) {
			t.Fatal("session never registered")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		readRecord()
		snap := srv.Snapshot()
		if len(snap.PerSession) != 1 {
			t.Fatalf("per-session snapshots = %d, want 1", len(snap.PerSession))
		}
		ss := snap.PerSession[0]
		if ss.QueueCap != 4 {
			t.Fatalf("queue cap = %d, want 4", ss.QueueCap)
		}
		if ss.QueueLen > ss.QueueCap {
			t.Fatalf("queue len %d exceeds cap %d", ss.QueueLen, ss.QueueCap)
		}
		if ss.Offered < ss.Sent+ss.Shed {
			t.Fatalf("session accounting: offered %d < sent %d + shed %d",
				ss.Offered, ss.Sent, ss.Shed)
		}
		if ss.ID == 0 || ss.Duration <= 0 {
			t.Fatalf("session identity not populated: %+v", ss)
		}
	}
	conn.Close()

	srv.Shutdown()
	l.Close()
	<-serveDone
	checkAccounting(t, srv.Snapshot())
}

// TestFanoutDifferential serves the same media at the default queue depth and
// at QueueDepth 1 — where writeLoop's batch capacity flushRecords(p,
// QueueDepth) is 1, so every flush carries a single record — and demands
// byte-identical recovery with an exact ledger from each: batching is an
// optimization of the hand-off cost, never of the bytes or the accounting.
func TestFanoutDifferential(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	media := testMedia(t, 3*p.SegmentSize()-41, 56)
	for _, tc := range []struct {
		name  string
		depth int
	}{{"amortized", 64}, {"queue_depth_1", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultServerConfig()
			cfg.QueueDepth = tc.depth
			cfg.Seed = 5
			cfg.WriteDeadline = 2 * time.Second
			srv, err := NewServerFromConfig(media, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			l := startPipeServer(t, srv)
			payload, stats, err := Fetch(context.Background(), l.Dial())
			if err != nil {
				t.Fatalf("fetch at queue depth %d: %v (stats %+v)", tc.depth, err, stats)
			}
			if !bytes.Equal(payload, media) {
				t.Fatalf("payload differs at queue depth %d", tc.depth)
			}
			srv.Shutdown()
			checkAccounting(t, srv.Snapshot())
		})
	}
}

// TestServeEveryBlockCount serves and fetches a media-backed object at small
// and odd block counts in both modes. Below n = 4 a dense origin's XNC3
// counter record (a 4-byte index) is longer than an XNC1 record (n coefficient
// bytes), so the frames the pump hands its source must fit either.
func TestServeEveryBlockCount(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5} {
		for _, mode := range []WireMode{ModeDense, ModeSystematic} {
			t.Run(fmt.Sprintf("n=%d/%v", n, mode), func(t *testing.T) {
				p := rlnc.Params{BlockCount: n, BlockSize: 64}
				media := testMedia(t, 3*p.SegmentSize()-5, int64(60+n))
				cfg := DefaultServerConfig()
				cfg.Mode = mode
				cfg.WriteDeadline = 2 * time.Second
				srv, err := NewServerFromConfig(media, p, cfg)
				if err != nil {
					t.Fatal(err)
				}
				l := startPipeServer(t, srv)
				payload, stats, err := Fetch(context.Background(), l.Dial())
				if err != nil {
					t.Fatalf("fetch: %v (stats %+v)", err, stats)
				}
				if !bytes.Equal(payload, media) {
					t.Fatal("payload differs")
				}
				srv.Shutdown()
				checkAccounting(t, srv.Snapshot())
			})
		}
	}
}
