package netio

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/rlnc"
)

// TestDecisionRoundTrip: the admission decision codec round-trips every legal
// decision form and rejects every illegal one.
func TestDecisionRoundTrip(t *testing.T) {
	for _, d := range []admissionDecision{
		{code: admissionBusy, retryAfter: 750 * time.Millisecond},
		{code: admissionBusy},
		{code: admissionRedirect, addr: "10.1.2.3:9999"},
	} {
		rec, err := appendDecision(nil, d)
		if err != nil {
			t.Fatal(err)
		}
		hs, err := readHandshake(bytes.NewReader(rec))
		if err != nil || hs.dec == nil || *hs.dec != d {
			t.Fatalf("round trip of %+v: dec=%+v err=%v", d, hs.dec, err)
		}
		want := ErrAdmissionBusy
		if d.code == admissionRedirect {
			want = ErrAdmissionRedirect
		}
		if !errors.Is(hs.dec.Err(), want) {
			t.Fatalf("%+v: Err() = %v, want %v", d, hs.dec.Err(), want)
		}
	}

	// A session header is the only ACCEPT: no decision.
	hdr := sessionHeader{params: rlnc.Params{BlockCount: 4, BlockSize: 64}, segments: 2, length: 512}
	hs, err := readHandshake(bytes.NewReader(appendSessionHeader(nil, handshake{hdr: hdr})))
	if err != nil || hs.dec != nil || hs.hdr != hdr {
		t.Fatalf("accept: h=%+v dec=%v err=%v", hs.hdr, hs.dec, err)
	}

	// Decisions no server writes are rejected at marshal time.
	for _, bad := range []admissionDecision{
		{code: 0}, // the explicit ACCEPT of protocol v3
		{code: admissionBusy, addr: "x"},
		{code: admissionRedirect},
		{code: admissionRedirect, addr: "x", retryAfter: time.Second},
		{code: admissionRedirect, addr: string(make([]byte, maxRedirectAddr+1))},
		{code: 9},
	} {
		if _, err := appendDecision(nil, bad); !errors.Is(err, ErrBadHandshake) {
			t.Fatalf("appendDecision(%+v) = %v, want ErrBadHandshake", bad, err)
		}
	}
}

// TestDecisionRejectsForged: an unknown decision code — the v3 explicit
// ACCEPT among them, even followed by a session header — and a bad CRC are
// all ErrBadHandshake, even when the rest of the record is plausible.
func TestDecisionRejectsForged(t *testing.T) {
	rec, err := appendDecision(nil, admissionDecision{code: admissionBusy, retryAfter: time.Second})
	if err != nil {
		t.Fatal(err)
	}

	// Unknown code with a correct CRC: structurally sound, semantically not.
	for _, code := range []byte{0, 3} {
		forged := bytes.Clone(rec)
		forged[8] = code
		resealControl(forged)
		hdr := sessionHeader{params: rlnc.Params{BlockCount: 4, BlockSize: 64}, segments: 1, length: 256}
		forged = appendSessionHeader(forged, handshake{hdr: hdr})
		if _, err := readHandshake(bytes.NewReader(forged)); !errors.Is(err, ErrBadHandshake) {
			t.Fatalf("code %d: %v, want ErrBadHandshake", code, err)
		}
	}

	// Flipped CRC bit.
	forged := bytes.Clone(rec)
	forged[len(forged)-1] ^= 0x01
	if _, err := readHandshake(bytes.NewReader(forged)); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("bad CRC: %v, want ErrBadHandshake", err)
	}

	// Truncated record.
	for _, cut := range []int{6, len(rec) - 1} {
		if _, err := readHandshake(bytes.NewReader(rec[:cut])); !errors.Is(err, ErrBadHandshake) {
			t.Fatalf("truncated to %d bytes: %v, want ErrBadHandshake", cut, err)
		}
	}
}

// TestServeBusyHonoredByFetcher: a session-cap reject reaches the resilient
// fetcher as a structured BUSY with a retry hint, and the fetcher retries
// through it to completion once the cap frees up.
func TestServeBusyHonoredByFetcher(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, p.SegmentSize(), 21)
	cfg := DefaultServerConfig()
	cfg.MaxSessions = 1
	cfg.WriteDeadline = time.Second
	cfg.RetryAfter = 5 * time.Millisecond
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := startPipeServer(t, srv)

	// Pin the only session slot with a consuming raw client so the cap stays
	// hit until the test releases it.
	pinned, err := NewRawClient(l.Dial())
	if err != nil {
		t.Fatal(err)
	}
	pinDone := make(chan struct{})
	go func() {
		defer close(pinDone)
		for {
			if _, err := pinned.Next(); err != nil {
				return
			}
		}
	}()
	// The server counts a session against the cap only after its handshake
	// write returns, which the client can observe first.
	for deadline := time.Now().Add(10 * time.Second); srv.Snapshot().Sessions == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("pinned session never registered")
		}
	}

	fcfg := DefaultFetcherConfig()
	fcfg.BackoffBase = time.Millisecond
	fcfg.BackoffMax = 20 * time.Millisecond
	fcfg.Jitter = 0
	fcfg.Seed = 1
	f := newTestFetcher(t, func(ctx context.Context) (net.Conn, error) {
		return l.Dial(), nil
	}, fcfg)

	fetchDone := make(chan error, 1)
	var res *FetchResult
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		var err error
		res, err = f.Fetch(ctx)
		fetchDone <- err
	}()

	// The fetcher must observe at least one BUSY before the slot frees.
	for deadline := time.Now().Add(10 * time.Second); f.Stats().AdmissionBusy == 0; {
		if time.Now().After(deadline) {
			t.Fatal("fetcher never saw a BUSY decision")
		}
		time.Sleep(time.Millisecond)
	}
	pinned.Close()
	<-pinDone

	if err := <-fetchDone; err != nil {
		t.Fatalf("fetch through BUSY: %v", err)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload differs after BUSY retries")
	}
	if res.Stats.AdmissionBusy == 0 {
		t.Fatal("stats lost the BUSY count")
	}
	snap := srv.Snapshot()
	if snap.AdmissionBusy == 0 || snap.SessionsRejected == 0 {
		t.Fatalf("server side: admission_busy=%d sessions_rejected=%d, want both > 0",
			snap.AdmissionBusy, snap.SessionsRejected)
	}
}

// TestDrainRedirectFollowed is the drain gate at netio scope: a fetcher
// mid-download on a draining server is walked — by a REDIRECT decision, not
// out-of-band control — to the named survivor, keeps all accumulated rank,
// and finishes a byte-identical transfer; both servers' ledgers balance.
func TestDrainRedirectFollowed(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 2048}
	media := testMedia(t, 4*p.SegmentSize(), 22)
	newTCPServer := func(seed int64) (*Server, net.Listener, chan error) {
		t.Helper()
		cfg := DefaultServerConfig()
		cfg.WriteDeadline = time.Second
		cfg.Seed = seed
		srv, err := NewServerFromConfig(media, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		done := make(chan error, 1)
		go func() { done <- srv.Serve(context.Background(), l) }()
		return srv, l, done
	}
	srvA, lA, doneA := newTCPServer(100)
	srvB, lB, doneB := newTCPServer(200)
	defer func() {
		srvB.Shutdown()
		lB.Close()
		<-doneB
	}()

	// A pinned consuming session holds the drain window open: Drain waits for
	// it, so REDIRECT stays on offer until the fetcher has walked off.
	pinConn, err := net.Dial("tcp", lA.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := NewRawClient(pinConn)
	if err != nil {
		t.Fatal(err)
	}
	pinDone := make(chan struct{})
	go func() {
		defer close(pinDone)
		for {
			if _, err := pinned.Next(); err != nil {
				return
			}
		}
	}()

	// The fetcher dials through a Redirector wrapped in chaos resets, so its
	// connection to the draining server keeps getting cut mid-stream and each
	// reconnect passes through admission again.
	rd := NewRedirector(lA.Addr().String())
	dial, _ := faultnet.Dialer(faultnet.Config{Seed: 23, ResetEvery: 24 << 10}, rd.Dial)
	fcfg := DefaultFetcherConfig()
	fcfg.Redirector = rd
	fcfg.BackoffBase = time.Millisecond
	fcfg.BackoffMax = 50 * time.Millisecond
	fcfg.Seed = 2
	f := newTestFetcher(t, dial, fcfg)

	fetchDone := make(chan error, 1)
	var res *FetchResult
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		var err error
		res, err = f.Fetch(ctx)
		fetchDone <- err
	}()

	// Let the fetcher accumulate rank on the doomed server first, then drain.
	for deadline := time.Now().Add(10 * time.Second); f.Stats().Records == 0; {
		if time.Now().After(deadline) {
			t.Fatal("fetch never started on the draining server")
		}
		time.Sleep(time.Millisecond)
	}
	drainDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drainDone <- srvA.Drain(ctx, lB.Addr().String())
	}()

	if err := <-fetchDone; err != nil {
		t.Fatalf("fetch across drain: %v", err)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload differs after redirect")
	}
	stats := res.Stats
	if stats.AdmissionRedirected == 0 {
		t.Fatal("fetcher never saw the REDIRECT decision")
	}
	if rd.Redirects() == 0 || rd.Target() != lB.Addr().String() {
		t.Fatalf("redirector not walked to the survivor: redirects=%d target=%q",
			rd.Redirects(), rd.Target())
	}
	if stats.ResumedRank == 0 {
		t.Fatal("no rank carried across the redirect reconnects")
	}

	// Release the pinned session; the drain must now complete cleanly.
	pinned.Close()
	<-pinDone
	if err := <-drainDone; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	lA.Close()
	<-doneA

	snapA := srvA.Snapshot()
	if snapA.AdmissionRedirected == 0 {
		t.Fatal("drained server wrote no REDIRECT decisions")
	}
	if !snapA.Draining {
		t.Fatal("drained server snapshot does not report draining")
	}
	if !snapA.Consistent() {
		t.Fatalf("drained ledger: offered %d != sent %d + shed %d",
			snapA.BlocksOffered, snapA.BlocksSent, snapA.BlocksShed)
	}
	srvB.Shutdown()
	if snapB := srvB.Snapshot(); !snapB.Consistent() {
		t.Fatalf("survivor ledger: offered %d != sent %d + shed %d",
			snapB.BlocksOffered, snapB.BlocksSent, snapB.BlocksShed)
	}
}

// TestShutdownDrainRace: Shutdown and Drain are idempotent and safe to race
// with each other and with Serve; every call returns, and follow-up calls are
// no-ops. Run under -race this is the regression net for the teardown
// interlocks.
func TestShutdownDrainRace(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 256}
	media := testMedia(t, p.SegmentSize(), 24)
	cfg := DefaultServerConfig()
	cfg.WriteDeadline = time.Second
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(context.Background(), l) }()

	// One live session so teardown has real work to race over.
	fetchDone := make(chan error, 1)
	go func() {
		_, _, err := Fetch(context.Background(), l.Dial())
		fetchDone <- err
	}()
	time.Sleep(5 * time.Millisecond)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			srv.Shutdown()
		}()
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			srv.Drain(ctx, "") //nolint:errcheck — racing Shutdown may pre-empt it
		}()
	}
	wg.Wait()

	l.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after racing teardown: %v", err)
	}
	<-fetchDone

	// Every follow-up is a fast no-op.
	if err := srv.Drain(context.Background(), "nowhere:1"); err != nil {
		t.Fatalf("Drain after Shutdown: %v", err)
	}
	srv.Shutdown()
	checkAccounting(t, srv.Snapshot())
}

// TestStalledPeerRefusesNoOne: a peer that never reads, on a server that
// never drops it, parks the pump with its queue full — the wait is charged as
// encode stall — but costs nobody else anything: the next fetch is admitted
// and completes, and no BUSY is written.
func TestStalledPeerRefusesNoOne(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 256}
	media := testMedia(t, p.SegmentSize(), 25)
	cfg := DefaultServerConfig()
	cfg.QueueDepth = 2
	cfg.WriteDeadline = 0 // never drop the staller
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := startPipeServer(t, srv)

	staller := l.Dial()
	if _, err := readHandshake(staller); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(15 * time.Second); srv.Snapshot().EncodeStall == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the pump never parked on the staller's full queue: %+v", srv.Snapshot().CounterView)
		}
	}

	payload, _, err := Fetch(context.Background(), l.Dial())
	if err != nil || !bytes.Equal(payload, media) {
		t.Fatalf("fetch beside a staller: %v (payload equal %v)", err, bytes.Equal(payload, media))
	}
	if snap := srv.Snapshot(); snap.AdmissionBusy != 0 || snap.SessionsRejected != 0 {
		t.Fatalf("busy %d, rejected %d with one staller", snap.AdmissionBusy, snap.SessionsRejected)
	}
	staller.Close()
	srv.Shutdown()
	checkAccounting(t, srv.Snapshot())
}

// TestFetchTimeoutPartialResult: the overall wall-clock budget expires on a
// deliberately slow server and the fetch degrades to a partial result — rank
// preserved, ErrFetchTimeout, no payload.
func TestFetchTimeoutPartialResult(t *testing.T) {
	p := rlnc.Params{BlockCount: 64, BlockSize: 1024}
	media := testMedia(t, p.SegmentSize(), 26)
	// One record per 20ms: full rank needs ≥ 1.28s, far past the 250ms budget,
	// but the first records land well inside it.
	cfg := DefaultServerConfig()
	cfg.EncodeBatch = 1
	cfg.Pace = 20 * time.Millisecond
	cfg.WriteDeadline = time.Second
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := startPipeServer(t, srv)

	fcfg := DefaultFetcherConfig()
	fcfg.FetchTimeout = 250 * time.Millisecond
	f := newTestFetcher(t, func(ctx context.Context) (net.Conn, error) {
		return l.Dial(), nil
	}, fcfg)
	res, err := f.Fetch(context.Background())
	if !errors.Is(err, ErrFetchTimeout) {
		t.Fatalf("err = %v, want ErrFetchTimeout", err)
	}
	if res == nil || res.Stats == nil {
		t.Fatal("timed-out fetch returned no result")
	}
	if res.Payload != nil {
		t.Fatal("timed-out fetch claims a complete payload")
	}
	total := 0
	for _, r := range res.Ranks {
		total += r
	}
	if total == 0 {
		t.Fatal("no partial rank survived the timeout")
	}
	// The caller's own cancellation must NOT be rebranded as ErrFetchTimeout.
	fcfg.FetchTimeout = time.Hour
	f2 := newTestFetcher(t, func(ctx context.Context) (net.Conn, error) {
		return l.Dial(), nil
	}, fcfg)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := f2.Fetch(ctx); errors.Is(err, ErrFetchTimeout) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fetch: %v, want context.Canceled without ErrFetchTimeout", err)
	}
}

// TestBackoffCtxInterruptible: a fetcher parked in a long backoff sleep wakes
// immediately when its context ends instead of serving out the delay.
func TestBackoffCtxInterruptible(t *testing.T) {
	dialErr := errors.New("nope")
	fcfg := DefaultFetcherConfig()
	fcfg.BackoffBase = time.Hour
	fcfg.BackoffMax = time.Hour
	fcfg.Jitter = 0
	f := newTestFetcher(t, func(ctx context.Context) (net.Conn, error) {
		return nil, dialErr
	}, fcfg)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := f.Fetch(ctx)
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("backoff ignored cancellation for %v", elapsed)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
