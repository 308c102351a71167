package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/harness"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

// smokeGate is one end-to-end check of a loopback server: the media seed and
// server config its bring-up takes, and what it asserts of the running server.
type smokeGate struct {
	seed  int64
	cfg   netio.ServerConfig
	check func(ctx context.Context, e *smokeEnv, out io.Writer) error
}

// smokeEnv is what the shared bring-up hands a gate: an observed process,
// seeded media, a loopback server over it (stop returns the final snapshot)
// and its metrics endpoint at base.
type smokeEnv struct {
	reg   *obs.Registry
	media []byte
	p     rlnc.Params
	srv   *netio.Server
	addr  string
	stop  func() netio.Snapshot
	base  string
}

func runSmoke(args []string, out io.Writer) error {
	var names []string
	for len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		names, args = append(names, args[0]), args[1:]
	}
	fs := flag.NewFlagSet("nc smoke", flag.ContinueOnError)
	clients := fs.Int("clients", 4, "serve gate: concurrent fetchers")
	sf := serveFlags{deadline: 4 * time.Second}
	sf.registerSmoke(fs)
	c := common{size: 200_000, timeout: 60 * time.Second}
	c.register(fs, "size", "timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	serveCfg, err := sf.config()
	if err != nil {
		return err
	}
	xorCfg := netio.DefaultServerConfig()
	xorCfg.Mode = netio.ModeSystematic
	gates := map[string]smokeGate{
		"serve":   {42, serveCfg, func(ctx context.Context, e *smokeEnv, out io.Writer) error { return serveGate(ctx, e, *clients, out) }},
		"metrics": {43, netio.DefaultServerConfig(), metricsGate},
		"xor":     {44, xorCfg, xorGate},
	}
	if len(names) == 0 {
		names = []string{"serve", "metrics", "xor"}
	}
	for _, name := range names {
		if _, ok := gates[name]; !ok {
			return fmt.Errorf("unknown smoke gate %q (serve, metrics or xor)", name)
		}
	}
	for _, name := range names {
		if err := c.bringUp(gates[name], out); err != nil {
			return fmt.Errorf("%s smoke: %w", name, err)
		}
	}
	return nil
}

// bringUp is the bring-up every gate shares: the server runs with a fresh
// registry attached and its metrics endpoint up, over n=16, k=1024.
func (c *common) bringUp(g smokeGate, out io.Writer) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.timeout)
	defer cancel()
	reg, stopObserve := harness.Observe()
	defer stopObserve()
	e := &smokeEnv{reg: reg, media: harness.Media(c.size, g.seed), p: rlnc.Params{BlockCount: 16, BlockSize: 1024}}
	g.cfg.Metrics = reg
	srv, err := netio.NewServerFromConfig(e.media, e.p, g.cfg)
	if err != nil {
		return err
	}
	e.srv = srv
	if e.addr, e.stop, err = harness.Serve(srv); err != nil {
		return err
	}
	defer e.stop()
	bound, stopMetrics, err := harness.ServeMetrics("127.0.0.1:0", reg, func() map[string]any {
		return map[string]any{"server": srv.Snapshot()}
	})
	if err != nil {
		return err
	}
	defer stopMetrics()
	e.base = "http://" + bound
	return g.check(ctx, e, out)
}

// serveGate fetches the object back with several concurrent one-shot
// clients and checks the payloads and the accounting (`make serve-smoke`). On
// this clean link, in either mode, every client must read exactly one sweep —
// n × segments records — and nothing may be shed; the pump encodes nothing,
// so what the server encoded is its dense sweep table, n × segments records
// once however many clients read it (a systematic sweep encodes nothing).
func serveGate(ctx context.Context, e *smokeEnv, clients int, out io.Writer) error {
	// One-shot clients: a stream failure is final, as with netio.Fetch.
	fcfg := netio.DefaultFetcherConfig()
	fcfg.MaxAttempts = 1
	sweep := e.p.BlockCount * e.srv.Segments()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := harness.Fetch(ctx, harness.Dial(e.addr), fcfg, e.media)
			if err == nil && res.Stats.Records != sweep {
				err = fmt.Errorf("read %d records, want one sweep of %d", res.Stats.Records, sweep)
			}
			if err != nil {
				errs[i] = fmt.Errorf("client %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	snap := e.stop()
	// All sessions have ended, so the strict ledger equality must hold.
	if !snap.Consistent() {
		return fmt.Errorf("accounting mismatch: offered %d != sent %d + shed %d",
			snap.BlocksOffered, snap.BlocksSent, snap.BlocksShed)
	}
	if snap.SessionsTotal != int64(clients) {
		return fmt.Errorf("sessions_total = %d, want %d", snap.SessionsTotal, clients)
	}
	table := 0
	if snap.Mode == netio.ModeDense {
		table = sweep
	}
	if snap.BlocksEncoded != int64(table) || snap.BlocksShed != 0 {
		return fmt.Errorf("%s clients on a clean link cost %d encoded and %d shed blocks, want %d and none",
			snap.Mode, snap.BlocksEncoded, snap.BlocksShed, table)
	}
	fmt.Fprintf(out, "smoke ok: %d clients, mode %s, %d records each, %d blocks encoded, %d sent, %d shed, %d bytes, stall %s\n",
		clients, snap.Mode, sweep, snap.BlocksEncoded, snap.BlocksSent, snap.BlocksShed, snap.BytesSent, snap.EncodeStall)
	return nil
}

// metricsGate is the observability gate (`make metrics-smoke`): a loopback
// fetch with a registry-attached resilient client, then a scrape of /metrics
// over real HTTP parsed with the in-repo parser. It fails unless the core
// series are present and nonzero — server blocks, fetcher records, live
// histograms — the scraped netio_blocks_encoded is the server's own count, and
// every route answers with the right status and type.
func metricsGate(ctx context.Context, e *smokeEnv, out io.Writer) error {
	fcfg := netio.DefaultFetcherConfig()
	fcfg.Metrics = e.reg
	if _, err := harness.Fetch(ctx, harness.Dial(e.addr), fcfg, e.media); err != nil {
		return fmt.Errorf("loopback fetch: %w", err)
	}
	snap := e.stop()

	// The scrape itself: 200, text/plain, and a body the in-repo parser takes.
	series, err := harness.Series(func(w io.Writer) error {
		return checkRoute(ctx, http.MethodGet, e.base+"/metrics", http.StatusOK, "Content-Type", "text/plain", w)
	})
	if err != nil {
		return err
	}
	for _, name := range []string{
		"netio_blocks_encoded", "netio_blocks_sent", "netio_bytes_sent",
		"netio_sessions_total", "fetch_attempts", "fetch_records", "fetch_bytes",
		"runtime_goroutines", "runtime_heap_alloc_bytes", "runtime_uptime_seconds",
	} {
		if series[name] <= 0 {
			return fmt.Errorf("scrape: series %s = %v, want > 0", name, series[name])
		}
	}
	// One counter covers every record the origin encodes, its sweep table's
	// included: the scrape reads what the server counted.
	if got := series["netio_blocks_encoded"]; got != float64(snap.BlocksEncoded) {
		return fmt.Errorf("scrape: netio_blocks_encoded = %v, the server counted %d", got, snap.BlocksEncoded)
	}
	histograms := 0
	for _, name := range e.reg.Names() {
		if v, ok := e.reg.HistogramView(name); ok && v.Count > 0 && v.P50 > 0 {
			histograms++
		}
	}
	if histograms < 3 {
		return fmt.Errorf("scrape: only %d populated stage histograms, want >= 3", histograms)
	}
	for path, wantType := range map[string]string{
		"/metrics.json":             "application/json",
		"/debug/flight":             "application/json",
		"/debug/pprof/":             "text/html",
		"/debug/pprof/heap?debug=1": "text/plain",
	} {
		if err := checkRoute(ctx, http.MethodGet, e.base+path, http.StatusOK, "Content-Type", wantType, nil); err != nil {
			return err
		}
	}
	if err := checkRoute(ctx, http.MethodGet, e.base+"/nope", http.StatusNotFound, "", "", nil); err != nil {
		return err
	}
	// The exposition routes must refuse mutations with a correct 405 (not the
	// catch-all 404) and stamp nosniff on every response.
	for _, path := range []string{"/metrics", "/metrics.json", "/debug/flight"} {
		if err := checkRoute(ctx, http.MethodPost, e.base+path, http.StatusMethodNotAllowed, "", "", nil); err != nil {
			return err
		}
	}
	if err := checkRoute(ctx, http.MethodGet, e.base+"/metrics", http.StatusOK, "X-Content-Type-Options", "nosniff", nil); err != nil {
		return err
	}
	fmt.Fprintf(out, "metrics-smoke ok: %d series scraped, %d populated histograms, blocks sent %.0f, fetch records %.0f\n",
		len(series), histograms, series["netio_blocks_sent"], series["fetch_records"])
	return nil
}

// xorGate is the systematic + XOR wire-mode gate (`make xor-smoke`): one
// clean loopback fetch and one through a lossy faultnet link, both
// byte-verified. The clean leg must cost exactly one sweep — n × segments
// records read, nothing encoded, nothing shed; the lossy leg must have gone
// through loss handling — a need record answered with repair, or a reconnect
// that resumed rank. Then a registry scrape must show the rlnc.xor_absorb
// stage with nonzero traffic, proving the decoders rode the GF(2) fast path
// instead of silently falling back to dense elimination.
func xorGate(ctx context.Context, e *smokeEnv, out io.Writer) error {
	// Leg 1: clean loopback — one sweep and nothing else.
	fcfg := netio.DefaultFetcherConfig()
	res, err := harness.Fetch(ctx, harness.Dial(e.addr), fcfg, e.media)
	if err != nil {
		return fmt.Errorf("clean systematic fetch: %w", err)
	}
	if res.Mode != netio.ModeSystematic {
		return fmt.Errorf("clean fetch negotiated %s, want systematic", res.Mode)
	}
	if sweep := e.p.BlockCount * e.srv.Segments(); res.Stats.Records != sweep {
		return fmt.Errorf("clean systematic fetch read %d records, want one sweep of %d", res.Stats.Records, sweep)
	}
	if snap := e.srv.Snapshot(); snap.BlocksEncoded != 0 || snap.BlocksShed != 0 {
		return fmt.Errorf("clean systematic fetch cost %d encoded and %d shed blocks, want none", snap.BlocksEncoded, snap.BlocksShed)
	}

	// Leg 2: the loss sweep — corruption and resets force the repair and
	// reconnect machinery through the same negotiated mode.
	dial, ctr := faultnet.Dialer(faultnet.Config{
		Seed:         45,
		CorruptEvery: 4000,
		ResetEvery:   60000,
		MaxReadChunk: 512,
	}, harness.Dial(e.addr))
	fcfg.BackoffBase, fcfg.BackoffMax = time.Millisecond, 20*time.Millisecond
	lres, err := harness.Fetch(ctx, dial, fcfg, e.media)
	if err != nil {
		return fmt.Errorf("lossy systematic fetch: %w (faults %+v)", err, ctr.View())
	}
	e.stop()

	// The proof obligation: the GF(2) fast path must have absorbed records.
	v, ok := e.reg.HistogramView("rlnc.xor_absorb")
	if !ok || v.Count == 0 {
		return fmt.Errorf("rlnc.xor_absorb stage saw no traffic (ok=%v): XOR fast path never engaged", ok)
	}
	// And it must survive the text exposition round trip, where the CI
	// scrape reads it.
	series, err := harness.Series(e.reg.WriteText)
	if err != nil {
		return err
	}
	needs := int(series["netio_need_records"])
	if count := series["rlnc_xor_absorb_count"]; count <= 0 {
		return fmt.Errorf("scrape: rlnc_xor_absorb_count = %v, want > 0", count)
	}
	if needs == 0 && lres.Stats.Reconnects == 0 {
		return fmt.Errorf("lossy systematic fetch met no loss handling: no need record, no reconnect (faults %+v)", ctr.View())
	}
	fmt.Fprintf(out, "xor-smoke ok: mode %s, %d xor absorbs, clean %d records, lossy %d records (%d need records, %d reconnects, %d corrupt, %d resyncs, faults %+v)\n",
		e.srv.Mode(), v.Count, res.Stats.Records, lres.Stats.Records, needs, lres.Stats.Reconnects,
		lres.Stats.Corrupt, lres.Stats.FramingResyncs, ctr.View())
	return nil
}

// checkRoute issues method against url and verifies the status code and, when
// header is named, that its value (up to any ";parameter") is want. A non-nil
// body receives the response body.
func checkRoute(ctx context.Context, method, url string, status int, header, want string, body io.Writer) error {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		return fmt.Errorf("%s %s: status %d, want %d", method, url, resp.StatusCode, status)
	}
	if got, _, _ := strings.Cut(resp.Header.Get(header), ";"); header != "" && got != want {
		return fmt.Errorf("%s %s: header %s = %q, want %s", method, url, header, resp.Header.Get(header), want)
	}
	if body != nil {
		_, err = io.Copy(body, resp.Body)
	}
	return err
}
