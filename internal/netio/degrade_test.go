package netio

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/rlnc"
)

// TestDecisionRoundTrip: the admission decision codec round-trips a BUSY
// decision and its retry hint.
func TestDecisionRoundTrip(t *testing.T) {
	for _, d := range []admissionDecision{{retryAfter: 750 * time.Millisecond}, {}} {
		hs, err := readHandshake(bytes.NewReader(appendDecision(nil, d)))
		if err != nil || hs.dec == nil || *hs.dec != d {
			t.Fatalf("round trip of %+v: dec=%+v err=%v", d, hs.dec, err)
		}
		if !errors.Is(hs.dec.Err(), ErrAdmissionBusy) {
			t.Fatalf("%+v: Err() = %v, want ErrAdmissionBusy", d, hs.dec.Err())
		}
	}

	// A session header is the only ACCEPT: no decision.
	hdr := SessionInfo{Params: rlnc.Params{BlockCount: 4, BlockSize: 64}, Segments: 2, Length: 512}
	hs, err := readHandshake(bytes.NewReader(appendSessionHeader(nil, handshake{hdr: hdr})))
	if err != nil || hs.dec != nil || hs.hdr != hdr {
		t.Fatalf("accept: h=%+v dec=%v err=%v", hs.hdr, hs.dec, err)
	}
}

// legacyRedirect is protocol v4's REDIRECT decision to addr: code 2, a zero
// retry hint, then the address. No server writes it any more.
func legacyRedirect(addr string) []byte {
	return appendControl(nil, decisionMagic, append([]byte{2, 0, 0, 0, 0}, addr...))
}

// TestDecisionRejectsForged: a decision code other than BUSY — the v3
// explicit ACCEPT, even followed by a session header, and the retired
// REDIRECT among them — a BUSY with trailing bytes, and a bad CRC are all
// ErrBadHandshake, even when the rest of the record is plausible.
func TestDecisionRejectsForged(t *testing.T) {
	rec := appendDecision(nil, admissionDecision{retryAfter: time.Second})

	// Unknown code with a correct CRC: structurally sound, semantically not.
	for _, code := range []byte{0, 2, 3} {
		forged := bytes.Clone(rec)
		forged[8] = code
		resealControl(forged)
		hdr := SessionInfo{Params: rlnc.Params{BlockCount: 4, BlockSize: 64}, Segments: 1, Length: 256}
		forged = appendSessionHeader(forged, handshake{hdr: hdr})
		if _, err := readHandshake(bytes.NewReader(forged)); !errors.Is(err, ErrBadHandshake) {
			t.Fatalf("code %d: %v, want ErrBadHandshake", code, err)
		}
	}

	// The retired REDIRECT as protocol v4 wrote it, and a BUSY that carries
	// an address the same way.
	busyWithAddr := appendControl(nil, decisionMagic, append([]byte{decisionBusy, 0, 0, 0, 5}, "10.0.0.7:9000"...))
	for name, forged := range map[string][]byte{"redirect": legacyRedirect("10.0.0.7:9000"), "busy with an address": busyWithAddr} {
		if _, err := readHandshake(bytes.NewReader(forged)); !errors.Is(err, ErrBadHandshake) {
			t.Fatalf("%s: %v, want ErrBadHandshake", name, err)
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
			srv.Drain(ctx) //nolint:errcheck — racing Shutdown may pre-empt it
		}()
	}
	wg.Wait()

	l.Close()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve after racing teardown: %v", err)
	}
	<-fetchDone

	// Every follow-up is a fast no-op.
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after Shutdown: %v", err)
	}
	srv.Shutdown()
	checkAccounting(t, srv.Snapshot())
}

// TestStalledPeerRefusesNoOne: a peer that asks past its sweep and then never
// reads, on a server that never drops it, parks the pump with its queue full
// — the wait is charged as encode stall — but costs nobody else anything: the
// next fetch is admitted and completes, and no BUSY is written.
func TestStalledPeerRefusesNoOne(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 256}
	media := testMedia(t, p.SegmentSize(), 25)
	cfg := DefaultServerConfig()
	cfg.QueueDepth = 2
	cfg.WriteDeadline = 0 // never drop the staller
	srv := newPoolServer(t, media, p, cfg)
	l := startPipeServer(t, srv)

	staller := l.Dial()
	if _, err := readHandshake(staller); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(staller, make([]byte, p.BlockCount*(recordLenLen+rlnc.WireSize(p)))); err != nil {
		t.Fatal(err)
	}
	if _, err := staller.Write(appendNeed(nil, []uint32{uint32(p.BlockCount)})); err != nil {
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

// TestFetchTimeoutPartialResult: a fetch's wall-clock budget is its context's
// deadline. It expires on a deliberately slow link and the fetch degrades to
// a partial result — rank preserved, context.DeadlineExceeded, no payload.
func TestFetchTimeoutPartialResult(t *testing.T) {
	p := rlnc.Params{BlockCount: 64, BlockSize: 1024}
	media := testMedia(t, p.SegmentSize(), 26)
	// A 20ms stall about every record the client reads (~1.1 KB): the sweep
	// of 64 records needs over a second, far past the 250ms budget, but the
	// first records land well inside it.
	srv, err := NewServerFromConfig(media, p, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := startPipeServer(t, srv)
	slow := faultnet.Config{Seed: 26, StallEvery: 1024, Stall: 20 * time.Millisecond}

	f := newTestFetcher(t, func(ctx context.Context) (net.Conn, error) {
		return faultnet.Wrap(l.Dial(), slow), nil
	}, DefaultFetcherConfig())
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	res, err := f.Fetch(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
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
}

// TestBackoffCtxInterruptible: a fetcher parked in a long backoff sleep wakes
// immediately when its context ends instead of serving out the delay.
func TestBackoffCtxInterruptible(t *testing.T) {
	dialErr := errors.New("nope")
	fcfg := DefaultFetcherConfig()
	fcfg.BackoffBase = time.Hour
	fcfg.BackoffMax = time.Hour
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
