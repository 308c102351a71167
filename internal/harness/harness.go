// Package harness is what the gates of cmd/nc (nc smoke, nc load and the
// nc mesh presets) share: seeded media, an observed process, a loopback
// server behind one stop, raw-client fleets, the slow-reader wave, scraping,
// byte verification and the -summary verdict. Each function owns a bring-up or
// teardown order its callers used to spell out.
package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"extremenc/internal/mesh"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
)

// Media returns size pseudo-random bytes drawn from seed.
func Media(size int, seed int64) []byte {
	media := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(media)
	return media
}

// Observe gives the process a fresh registry carrying the runtime gauges and
// installs it as the span sink (stage-latency histograms on); stop detaches it.
func Observe() (reg *obs.Registry, stop func()) {
	reg = obs.NewRegistry()
	obs.SetSink(reg)
	_ = obs.RegisterRuntime(reg) // fails only on a name collision, and reg is new
	return reg, func() { obs.SetSink(nil) }
}

// Flight enables the flight-recorder ring at size events and dumps it to w on
// every SIGQUIT; stop ends the dumper goroutine and disables the ring.
func Flight(size int, w io.Writer) (stop func()) {
	trace.Enable(size)
	quits := make(chan os.Signal, 1)
	signal.Notify(quits, syscall.SIGQUIT)
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		for range quits {
			w.Write(trace.DumpJSON()) //nolint:errcheck — best-effort dump
			fmt.Fprintln(w)
		}
	}()
	return func() {
		signal.Stop(quits) // no send can follow, so the close is safe
		close(quits)
		<-exited
		trace.Disable()
	}
}

// ServeMetrics serves obs.Handler(reg, extra) on addr and returns the bound
// address; stop closes listener and connections and waits for the goroutine.
func ServeMetrics(addr string, reg *obs.Registry, extra func() map[string]any) (bound string, stop func(), err error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("metrics listener: %w", err)
	}
	hs := &http.Server{Handler: obs.Handler(reg, extra)}
	done := make(chan struct{})
	go func() { defer close(done); hs.Serve(l) }() //nolint:errcheck — ErrServerClosed at stop
	return l.Addr().String(), func() { hs.Close(); <-done }, nil
}

// Serve runs srv on a fresh loopback listener and returns its address. stop
// (repeatable) shuts the server down, closes the listener, waits for Serve to
// return and hands back the final snapshot, in which the strict ledger holds.
func Serve(srv *netio.Server) (addr string, stop func() netio.Snapshot, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	done := make(chan struct{})
	// Serve returns nil after Shutdown; an accept failure shows as failed fetches.
	go func() { defer close(done); srv.Serve(context.Background(), l) }() //nolint:errcheck
	return l.Addr().String(), func() netio.Snapshot {
		srv.Shutdown()
		l.Close()
		<-done
		return srv.Snapshot()
	}, nil
}

// Dial returns the plain TCP DialFunc for addr.
func Dial(addr string) netio.DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		return new(net.Dialer).DialContext(ctx, "tcp", addr)
	}
}

// Fetch runs one fetcher built from cfg over dial and demands a payload
// byte-identical to media; the result comes back even on failure.
func Fetch(ctx context.Context, dial netio.DialFunc, cfg netio.FetcherConfig, media []byte) (*netio.FetchResult, error) {
	f, err := netio.NewFetcherFromConfig(dial, cfg)
	if err != nil {
		return nil, err
	}
	res, err := f.Fetch(ctx)
	if err == nil && !bytes.Equal(res.Payload, media) {
		err = errors.New("payload differs from the served media")
	}
	return res, err
}

// VerifyLeaves demands that every finished leaf decoded byte-identical to media.
func VerifyLeaves(media []byte, leaves ...*mesh.Leaf) error {
	for _, leaf := range leaves {
		res, err := leaf.Result()
		if err != nil {
			return fmt.Errorf("leaf %d: %w", leaf.ID, err)
		}
		if !bytes.Equal(res.Payload, media) {
			return fmt.Errorf("leaf %d: payload differs from origin media", leaf.ID)
		}
	}
	return nil
}

// Series reads metrics the way a scraper does, so a gate checks what CI sees:
// the exposition write renders (a registry's WriteText, an HTTP scrape's body)
// is parsed into sample key (TextSample.Key: the bare name if unlabelled) → value.
func Series(write func(io.Writer) error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return nil, err
	}
	samples, err := obs.ParseText(&buf)
	series := make(map[string]float64, len(samples))
	for _, s := range samples {
		series[s.Key()] = s.Value
	}
	return series, err
}

// Fleet is a set of raw sessions on one server, each reading until Close.
type Fleet struct {
	mu      sync.Mutex
	clients []*netio.RawClient
	closed  atomic.Bool // a reader may hold buffered records long after its conn closes
	readers sync.WaitGroup
}

// RampFleet dials size raw clients at addr, chunk at a time: waiting on each
// chunk's handshakes paces the accept queue while earlier sessions are already
// served. Each client reads records until Close, napping nap after every one —
// zero drains at wire speed, more backs the server's queues up. A failed ramp
// closes what it had opened.
func RampFleet(addr string, size, chunk int, nap time.Duration) (*Fleet, error) {
	f := new(Fleet)
	for ; size > 0; size -= chunk {
		n := min(chunk, size)
		errc := make(chan error, n)
		for i := 0; i < n; i++ {
			go func() { errc <- f.join(addr, nap) }()
		}
		var failed error
		for i := 0; i < n; i++ {
			if err := <-errc; err != nil {
				failed = err
			}
		}
		if failed != nil {
			f.Close()
			return nil, failed
		}
	}
	return f, nil
}

func (f *Fleet) join(addr string, nap time.Duration) error {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return err
	}
	rc, err := netio.NewRawClient(conn) // closes conn on failure
	if err != nil {
		return err
	}
	f.mu.Lock()
	f.clients = append(f.clients, rc)
	f.mu.Unlock()
	f.readers.Add(1)
	go func() {
		defer f.readers.Done()
		for !f.closed.Load() {
			if _, err := rc.Next(); err != nil {
				return
			}
			time.Sleep(nap)
		}
	}()
	return nil
}

// Close (repeatable) hangs up every client and waits for its reader — a
// napping one finishes its nap — so the server torn down next has no raw sessions.
func (f *Fleet) Close() {
	f.closed.Store(true)
	for _, rc := range f.clients { // the ramp is over: nothing appends any more
		rc.Close()
	}
	f.readers.Wait()
}

// SlowReaders runs wave while four readers that nap 50 ms after every record
// sit on the server at addr, then hangs them up. A credit server owes a slow
// reader records it cannot take; wave's sessions must be served all the same.
func SlowReaders(addr string, wave func() error) error {
	fleet, err := RampFleet(addr, 4, 4, 50*time.Millisecond)
	if err != nil {
		return err
	}
	defer fleet.Close()
	return wave()
}

// Twitchy is the relay tuning of a mesh schedule with slow-reader waves, a
// netio.ServerOption: small queues, so a slow reader backs its relay up
// within a few records, and a short BUSY retry-after hint.
func Twitchy(c *netio.ServerConfig) {
	c.QueueDepth, c.RetryAfter = 4, 5*time.Millisecond
}

// Verdict is the outcome of one gate run, its binary's -summary file: {"ok",
// "seed", <Fields' members>, "invariants" (one per promise checked), "error"}.
type Verdict struct {
	Seed                    int64
	Fields                  any // what the run measured: a struct with at least one member
	Invariants              map[string]bool
	SummaryPath, FlightPath string // where Finish writes; empty skips the file
	ok                      bool
	err                     string
}

// MarshalJSON renders the document described on Verdict.
func (v *Verdict) MarshalJSON() ([]byte, error) {
	mid, err := json.Marshal(v.Fields)
	if err != nil || len(mid) < 2 {
		return nil, errors.Join(err, errors.New("harness: verdict Fields must marshal to a JSON object"))
	}
	tail, _ := json.Marshal(struct { // a map of bools and a string always marshal
		Invariants map[string]bool `json:"invariants"`
		Error      string          `json:"error,omitempty"`
	}{v.Invariants, v.err})
	// encoding/json rejects the splice if Fields marshalled to no object.
	return fmt.Appendf(nil, `{"ok":%t,"seed":%d,%s,%s`, v.ok, v.Seed, mid[1:len(mid)-1], tail[1:]), nil
}

// Finish records runErr as the verdict and writes the flight ring (if the run
// failed with one recording) and the summary; it returns runErr joined with any summary failure.
func (v *Verdict) Finish(runErr error, out io.Writer) error {
	if v.ok = runErr == nil; !v.ok {
		v.err = runErr.Error()
		if trace.Enabled() {
			WriteFlight(v.FlightPath, trace.DumpJSON(), out)
		}
	}
	if v.SummaryPath == "" {
		return runErr
	}
	doc, err := json.MarshalIndent(v, "", " ")
	if err == nil {
		err = os.WriteFile(v.SummaryPath, append(doc, '\n'), 0o644)
	}
	return errors.Join(runErr, err)
}

// WriteFlight writes a failed run's flight dump to path (empty skips it) and says so on out.
func WriteFlight(path string, dump []byte, out io.Writer) {
	if path != "" && os.WriteFile(path, dump, 0o644) == nil {
		fmt.Fprintf(out, "flight dump written to %s\n", path)
	}
}
