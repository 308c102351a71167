package harness

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"extremenc/internal/mesh"
	"extremenc/internal/netio"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

var testParams = rlnc.Params{BlockCount: 8, BlockSize: 256}

// baseline returns the goroutine count to settle back to, after starting the
// process-lifetime goroutines the harness's dependencies create on first use:
// the shared encoder pool's workers and os/signal's loop.
func baseline() int {
	rlnc.SharedPool()
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGUSR2)
	signal.Stop(c)
	return runtime.NumGoroutine()
}

// settleGoroutines fails the test unless the live goroutine count returns to
// base: everything a harness function started must be gone once its stop
// function has returned.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		runtime.GC()
		if runtime.NumGoroutine() <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines live, want %d:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
	}
}

func newServer(t *testing.T, media []byte, mutate func(*netio.ServerConfig)) *netio.Server {
	t.Helper()
	cfg := netio.DefaultServerConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := netio.NewServerFromConfig(media, testParams, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func serve(t *testing.T, srv *netio.Server) (string, func() netio.Snapshot) {
	t.Helper()
	addr, stop, err := Serve(srv)
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	return addr, stop
}

// TestServeStop: one stop function tears the whole bring-up down — the final
// snapshot balances, a second stop is harmless, and no goroutine survives.
func TestServeStop(t *testing.T) {
	base := baseline()
	media := Media(3*testParams.SegmentSize()-11, 1)
	if !bytes.Equal(media, Media(len(media), 1)) || bytes.Equal(media, Media(len(media), 2)) {
		t.Fatal("Media is not a function of its seed")
	}
	srv := newServer(t, media, nil)
	addr, stop := serve(t, srv)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := Fetch(ctx, Dial(addr), netio.DefaultFetcherConfig(), media)
	if err != nil {
		t.Fatalf("fetch: %v", err)
	}
	if res.Stats.Records == 0 {
		t.Fatal("verified fetch reports no records")
	}
	other := Media(len(media), 2)
	if res, err := Fetch(ctx, Dial(addr), netio.DefaultFetcherConfig(), other); err == nil || res == nil ||
		!strings.Contains(err.Error(), "payload differs") {
		t.Fatalf("fetch checked against the wrong media: res %v, err %v", res, err)
	}

	snap := stop()
	if !snap.Consistent() || snap.Sessions != 0 || snap.SessionsTotal != 2 {
		t.Fatalf("final snapshot: consistent=%v, %d live, %d total sessions (want true, 0, 2): %+v",
			snap.Consistent(), snap.Sessions, snap.SessionsTotal, snap.CounterView)
	}
	if again := stop(); again.CounterView != snap.CounterView {
		t.Fatalf("second stop moved the ledger: %+v != %+v", again.CounterView, snap.CounterView)
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after stop")
	}
	settleGoroutines(t, base)
}

// TestFleetRamp: 64 raw sessions, ramped in chunks, as a wire-speed drain
// fleet and as slow readers; both are closed mid-read, promptly, leaving a
// balanced server and no goroutines. A ramp against nothing fails cleanly.
func TestFleetRamp(t *testing.T) {
	base := baseline()
	for _, nap := range []time.Duration{0, 250 * time.Millisecond} {
		t.Run(fmt.Sprint("nap=", nap), func(t *testing.T) {
			srv := newServer(t, Media(2*testParams.SegmentSize(), 3), func(c *netio.ServerConfig) {
				c.QueueDepth = 8
			})
			addr, stop := serve(t, srv)
			defer stop()
			fleet, err := RampFleet(addr, 64, 24, nap)
			if err != nil {
				t.Fatalf("ramp: %v", err)
			}
			defer fleet.Close()
			for deadline := time.Now().Add(10 * time.Second); srv.Snapshot().Sessions < 64; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d of 64 sessions registered", srv.Snapshot().Sessions)
				}
			}
			sent := srv.Snapshot().BlocksSent
			for deadline := time.Now().Add(10 * time.Second); srv.Snapshot().BlocksSent == sent; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("fleet is not reading: no block sent since the ramp")
				}
			}
			// A reader holds up to 32 KiB of buffered records when its conn
			// closes; Close must not wait for it to nap through them (~30 s).
			start := time.Now()
			fleet.Close()
			if took := time.Since(start); took > 10*time.Second {
				t.Fatalf("Close took %v with readers mid-read", took)
			}
			fleet.Close()
			if snap := stop(); !snap.Consistent() || snap.SessionsTotal != 64 {
				t.Fatalf("after the fleet: consistent=%v, %d sessions: %+v", snap.Consistent(), snap.SessionsTotal, snap.CounterView)
			}
		})
	}
	_, stop := serve(t, newServer(t, Media(testParams.SegmentSize(), 3), nil))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	stop()
	if _, err := RampFleet(dead, 8, 4, 0); err == nil {
		t.Fatal("ramp against a closed port succeeded")
	}
	settleGoroutines(t, base)
}

// TestSlowReaders: the slow-reader wave, against a shallow-queue server that
// never drops a session. The wave waits until the four readers have backed
// the server up — every queue full, the pump parked, 200 ms of encode stall
// charged — and two fetches must still finish byte-identical beside them,
// admitted without a BUSY. A server sends a session only what it asked for,
// so its queues back up only once a slow reader's asks have outrun its socket
// buffers: the records are 32 KiB, so that four readers asking at 20 records
// a second do that within about a second. A ramp that fails runs no wave.
func TestSlowReaders(t *testing.T) {
	base := baseline()
	p := rlnc.Params{BlockCount: testParams.BlockCount, BlockSize: 32 << 10}
	media := Media(p.SegmentSize(), 5)
	cfg := netio.DefaultServerConfig()
	cfg.QueueDepth = 2
	cfg.WriteDeadline = 0 // never drop a slow reader
	srv, err := netio.NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, stop := serve(t, srv)
	defer stop()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err = SlowReaders(addr, func() error {
		for srv.Snapshot().EncodeStall < 200*time.Millisecond {
			select {
			case <-ctx.Done():
				return fmt.Errorf("the readers never backed the server up: %+v", srv.Snapshot().CounterView)
			case <-time.After(time.Millisecond):
			}
		}
		errc := make(chan error, 2)
		for range 2 {
			go func() {
				_, err := Fetch(ctx, Dial(addr), netio.DefaultFetcherConfig(), media)
				errc <- err
			}()
		}
		return errors.Join(<-errc, <-errc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap := stop(); !snap.Consistent() || snap.Sessions != 0 || snap.SessionsTotal < 6 || snap.AdmissionBusy != 0 {
		t.Fatalf("after the wave: consistent=%v, %d live of %d sessions, %d BUSY", snap.Consistent(), snap.Sessions, snap.SessionsTotal, snap.AdmissionBusy)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := l.Addr().String()
	l.Close()
	if err := SlowReaders(dead, func() error { t.Error("wave ran without its readers"); return nil }); err == nil {
		t.Fatal("slow readers ramped against a closed port")
	}
	settleGoroutines(t, base)
}

// TestTwitchy pins the relay tuning of mesh schedules with slow-reader waves.
func TestTwitchy(t *testing.T) {
	var opt netio.ServerOption = Twitchy
	cfg := netio.DefaultServerConfig()
	opt(&cfg)
	if cfg.QueueDepth != 4 || cfg.RetryAfter != 5*time.Millisecond {
		t.Fatalf("queue/retry = %d/%v", cfg.QueueDepth, cfg.RetryAfter)
	}
}

// TestObserveMetricsSeries: the registry Observe installs carries the runtime
// gauges, reads the same through WriteText and through a real HTTP scrape of
// ServeMetrics, and both stop functions leave nothing behind.
func TestObserveMetricsSeries(t *testing.T) {
	base := baseline()
	reg, stopObserve := Observe()
	bound, stopMetrics, err := ServeMetrics("127.0.0.1:0", reg, func() map[string]any { return map[string]any{"k": 1} })
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	direct, err := Series(reg.WriteText)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	scraped, err := Series(func(w io.Writer) error {
		resp, err := client.Get("http://" + bound + "/metrics")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		_, err = io.Copy(w, resp.Body)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []map[string]float64{direct, scraped} {
		if series["runtime_goroutines"] <= 0 || len(series) < 5 {
			t.Fatalf("series = %v", series)
		}
	}
	if len(direct) != len(scraped) {
		t.Fatalf("%d series read directly, %d scraped", len(direct), len(scraped))
	}
	if _, err := Series(func(io.Writer) error { return io.ErrUnexpectedEOF }); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("write error lost: %v", err)
	}
	if _, err := Series(func(w io.Writer) error { _, err := io.WriteString(w, "not an exposition{\n"); return err }); err == nil {
		t.Fatal("malformed exposition parsed")
	}
	stopMetrics()
	if _, err := net.DialTimeout("tcp", bound, time.Second); err == nil {
		t.Fatal("metrics listener still accepting after stop")
	}
	if _, _, err := ServeMetrics(bound+"0", reg, nil); err == nil || !strings.Contains(err.Error(), "metrics listener") {
		t.Fatalf("bad address: %v", err)
	}
	stopObserve()
	settleGoroutines(t, base)
}

// signalled is a writer that reports each write.
type signalled struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	writes chan struct{}
}

func (s *signalled) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.writes <- struct{}{}:
	default:
	}
	return s.buf.Write(p)
}

// TestFlightStops: SIGQUIT dumps the ring without stopping the process, and
// stop really ends the dumper goroutine and disables the ring.
func TestFlightStops(t *testing.T) {
	base := baseline()
	w := &signalled{writes: make(chan struct{}, 1)}
	stop := Flight(64, w)
	if !trace.Enabled() {
		t.Fatal("ring not enabled")
	}
	trace.Emit(trace.KindShed, "harness-test", "probe", -1, 1)
	if err := syscall.Kill(os.Getpid(), syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w.writes:
	case <-time.After(10 * time.Second):
		t.Fatal("SIGQUIT produced no dump")
	}
	stop()
	w.mu.Lock()
	dump := w.buf.String()
	w.mu.Unlock()
	if !strings.Contains(dump, "harness-test") {
		t.Fatalf("dump does not hold the emitted event: %.200s", dump)
	}
	if trace.Enabled() {
		t.Fatal("ring still enabled after stop")
	}
	settleGoroutines(t, base)
}

// TestVerifyLeaves runs a one-relay mesh and checks the leaf verdict both ways.
func TestVerifyLeaves(t *testing.T) {
	reg, stopObserve := Observe()
	defer stopObserve()
	media := Media(2*testParams.SegmentSize()-5, 6)
	m, err := mesh.New(mesh.Topology{Media: media, Params: testParams, Relays: 1, Seed: 6, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Skipf("mesh bring-up unavailable: %v", err)
	}
	defer m.Close()
	for range 2 {
		if _, err := m.AddLeaf(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WaitLeaves(ctx); err != nil {
		t.Fatal(err)
	}
	if err := VerifyLeaves(media, m.Leaves()...); err != nil {
		t.Fatal(err)
	}
	if err := VerifyLeaves(Media(len(media), 7), m.Leaves()...); err == nil || !strings.Contains(err.Error(), "leaf 0: payload differs") {
		t.Fatalf("wrong media accepted: %v", err)
	}
}

// soakFields and loadFields mirror what `nc mesh -soak` and `nc load` put
// between "seed" and "invariants".
type soakFields struct {
	Events     int     `json:"events"`
	ElapsedS   float64 `json:"elapsed_s"`
	LeavesDone int     `json:"leaves_done"`
	Drains     int     `json:"drains"`
	Kills      int     `json:"kills"`
	Stalls     int     `json:"stall_waves"`
	Reroutes   int64   `json:"reroutes"`
}

type loadWave struct {
	Name     string  `json:"name"`
	Sessions int     `json:"sessions"`
	MBps     float64 `json:"mb_per_s"`
	P50Ns    int64   `json:"p50_ns"`
	P99Ns    int64   `json:"p99_ns"`
	ShedPct  float64 `json:"shed_pct"`
}

type loadFields struct {
	Smoke bool       `json:"smoke"`
	Waves []loadWave `json:"waves,omitempty"`
}

// TestVerdictGolden: the summary files are byte-identical to what the soak and
// load commands wrote before the verdict moved here. testdata/soak.golden.json
// and testdata/load.golden.json are the soak-summary.json and load-summary.json
// those commands wrote at the parent commit (`make soak-smoke load-smoke`);
// the failed-run documents are the old structs marshalled with an error set.
func TestVerdictGolden(t *testing.T) {
	soak := soakFields{Events: 12, ElapsedS: 3.9519309099999997, LeavesDone: 20, Drains: 2, Kills: 1, Stalls: 5, Reroutes: 3}
	soakInv := map[string]bool{"ledgers_balanced": true, "no_goroutine_leak": true, "payloads_identical": true, "rank_monotone": true}
	load := loadFields{Smoke: true, Waves: []loadWave{{
		Name: "BenchmarkServeLoad/sessions=1024", Sessions: 1024,
		MBps: 196.5278377083812, P50Ns: 16384, P99Ns: 262144, ShedPct: 6.493129073774235,
	}}}
	loadInv := map[string]bool{"canaries_identical": true, "ledgers_balanced": true, "p99_within_gate": true}
	for _, tc := range []struct {
		golden  string
		verdict Verdict
		runErr  error
	}{
		{"soak.golden.json", Verdict{Seed: 1, Fields: &soak, Invariants: soakInv}, nil},
		{"load.golden.json", Verdict{Seed: 1, Fields: &load, Invariants: loadInv}, nil},
		{"soak-failed.golden.json", Verdict{Seed: 42, Fields: &soakFields{Events: 3}, Invariants: map[string]bool{"rank_monotone": false}},
			errors.New(`invariant (seed 42): rank regressed 2 times, "quoted" <&>`)},
		{"load-failed.golden.json", Verdict{Seed: 9, Fields: &loadFields{}, Invariants: map[string]bool{}}, errors.New("ramp: connection refused")},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		v := tc.verdict
		v.SummaryPath = filepath.Join(t.TempDir(), "summary.json")
		if err := v.Finish(tc.runErr, io.Discard); (err == nil) != (tc.runErr == nil) || (err != nil && !errors.Is(err, tc.runErr)) {
			t.Fatalf("%s: Finish returned %v for run error %v", tc.golden, err, tc.runErr)
		}
		got, err := os.ReadFile(v.SummaryPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs.\ngot:\n%s\nwant:\n%s", tc.golden, got, want)
		}
	}
}

// TestVerdictArtifacts: the flight dump is written only for a failed run with
// a ring recording, no path means no file, and a summary that cannot be
// written is reported next to the run's own error.
func TestVerdictArtifacts(t *testing.T) {
	dir := t.TempDir()
	flight := filepath.Join(dir, "flight.json")
	boom := errors.New("boom")
	newVerdict := func() *Verdict {
		return &Verdict{Seed: 1, Fields: &loadFields{}, Invariants: map[string]bool{}, FlightPath: flight}
	}
	var out bytes.Buffer
	if err := newVerdict().Finish(boom, &out); !errors.Is(err, boom) {
		t.Fatalf("Finish = %v", err)
	}
	if _, err := os.Stat(flight); err == nil || out.Len() != 0 {
		t.Fatalf("flight dump written with no ring recording (out %q)", out.String())
	}

	trace.Enable(64)
	defer trace.Disable()
	trace.Emit(trace.KindShed, "harness-test", "probe", -1, 1)
	if err := newVerdict().Finish(nil, &out); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(flight); err == nil {
		t.Fatal("flight dump written for a passing run")
	}
	if err := newVerdict().Finish(boom, &out); !errors.Is(err, boom) {
		t.Fatalf("Finish = %v", err)
	}
	dump, err := os.ReadFile(flight)
	if err != nil || !bytes.Contains(dump, []byte("harness-test")) {
		t.Fatalf("flight dump: %v, %.100s", err, dump)
	}
	if want := "flight dump written to " + flight + "\n"; out.String() != want {
		t.Fatalf("announcement %q, want %q", out.String(), want)
	}

	v := newVerdict()
	v.SummaryPath = filepath.Join(dir, "no-such-dir", "summary.json")
	if err := v.Finish(boom, io.Discard); !errors.Is(err, boom) || !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("unwritable summary: %v", err)
	}
	v = &Verdict{Seed: 1, Fields: 7, SummaryPath: filepath.Join(dir, "bad.json")}
	if err := v.Finish(nil, io.Discard); err == nil {
		t.Fatal("non-object Fields produced a summary")
	}
}
