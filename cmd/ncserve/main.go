// Command ncserve streams network-coded content over TCP and fetches it
// back — the paper's streaming-server deployment on real sockets. The
// protocol is pure push: the server sends coded blocks round-robin across
// segments and the client simply hangs up once it can decode everything;
// there are no ACKs, retransmissions, or block-scheduling maps.
//
// The server multiplexes every connection over one shared encoder with
// bounded per-session queues (slow clients shed blocks instead of stalling
// the encoder), per-record write deadlines, and an optional HTTP
// observability endpoint: Prometheus text on /metrics, a JSON snapshot
// (including per-session detail) on /metrics.json, and the pprof profiles
// under /debug/pprof/. -log-every additionally emits a structured progress
// line to stderr at a fixed interval.
//
// Usage:
//
//	ncserve serve -listen 127.0.0.1:9099 -in media.bin -n 32 -k 4096 \
//	    -queue 64 -deadline 5s -metrics 127.0.0.1:9100 -log-every 10s
//	ncserve fetch -addr 127.0.0.1:9099 -out media-copy.bin -timeout 30s \
//	    -attempts 10 -backoff 50ms -backoff-max 2s -resume fetch.state
//	ncserve smoke -clients 4 -mode systematic
//	ncserve metrics-smoke
//	ncserve xor-smoke
//
// -mode selects the wire discipline the server declares in every handshake:
// dense (default) streams dense GF(2^8) blocks; systematic writes every
// session the source blocks once, in the compact XNC2 encoding, and then GF(2)
// XOR repair blocks and a dense tail only to a client that says it still lacks
// rank — the receiver decodes the binary prefix on an XOR-only fast path.
// xor-smoke is the end-to-end gate for that mode: a systematic serve, a clean
// fetch that must cost exactly one sweep plus a lossy faultnet fetch, and a
// scrape asserting the rlnc.xor_absorb stage actually saw traffic.
//
// The fetch client reconnects on resets and framing loss with capped
// exponential backoff, carrying decoder rank across connections; -resume
// persists that rank to disk when the attempt budget runs out so a later
// invocation continues where this one stopped.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/gf256"
	"extremenc/internal/harness"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ncserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: ncserve serve|fetch|smoke|metrics-smoke|xor-smoke [flags]")
	}
	switch args[0] {
	case "serve":
		return runServe(args[1:])
	case "fetch":
		return runFetch(args[1:])
	case "smoke":
		return runSmoke(args[1:])
	case "metrics-smoke":
		return runMetricsSmoke(args[1:])
	case "xor-smoke":
		return runXorSmoke(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// serveFlags are the session-layer tunables shared by serve and smoke.
type serveFlags struct {
	n, k     int
	queue    int
	deadline time.Duration
	retries  int
	maxSess  int
	mode     string
	shards   int
}

func (sf *serveFlags) register(fs *flag.FlagSet) {
	fs.IntVar(&sf.n, "n", 32, "blocks per segment")
	fs.IntVar(&sf.k, "k", 4096, "bytes per block")
	fs.IntVar(&sf.queue, "queue", 64, "per-session send queue depth (records)")
	fs.DurationVar(&sf.deadline, "deadline", 5*time.Second, "per-record write deadline (0 disables)")
	fs.IntVar(&sf.retries, "retries", 1, "extra deadline windows before a timed-out session is dropped")
	fs.IntVar(&sf.maxSess, "max-sessions", 0, "concurrent session cap (0 = unlimited)")
	fs.IntVar(&sf.shards, "shards", 1, "independent encoder-pump shards")
	sf.registerMode(fs)
}

func (sf *serveFlags) registerMode(fs *flag.FlagSet) {
	fs.StringVar(&sf.mode, "mode", "dense", "wire mode: dense or systematic (one sweep of the source blocks per session, then GF(2) XOR repair + dense tail on request)")
}

func (sf *serveFlags) config() (netio.ServerConfig, error) {
	cfg := netio.DefaultServerConfig()
	mode, err := netio.ParseWireMode(sf.mode)
	if err != nil {
		return cfg, err
	}
	cfg.QueueDepth = sf.queue
	cfg.WriteDeadline = sf.deadline
	cfg.WriteRetries = sf.retries
	cfg.MaxSessions = sf.maxSess
	cfg.Mode = mode
	if sf.shards > 0 {
		cfg.PumpShards = sf.shards
	}
	return cfg, nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("ncserve serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:9099", "listen address")
	inPath := fs.String("in", "", "media file to serve")
	metricsAddr := fs.String("metrics", "", "HTTP address for /metrics, /metrics.json and /debug/pprof/ (empty = off)")
	logEvery := fs.Duration("log-every", 0, "interval between structured progress lines on stderr (0 = off)")
	drain := fs.Duration("drain", 10*time.Second,
		"graceful drain deadline on SIGINT/SIGTERM: in-flight sessions run to rank completion while new connections get a structured refusal (0 = immediate shutdown)")
	drainRedirect := fs.String("drain-redirect", "",
		"address carried in REDIRECT admission decisions while draining (empty = refuse with BUSY)")
	brownout := fs.Duration("brownout", 0,
		"brownout controller sampling interval (0 = off): under sustained pressure the server paces its pumps, leans the systematic schedule, then refuses new sessions, stepping back down as pressure lifts")
	flight := fs.Int("flight", 16384,
		"flight-recorder ring capacity in events (0 = off): traced sessions and admission/brownout/shed events land here, dumpable on /debug/flight and SIGQUIT")
	var sf serveFlags
	sf.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *inPath == "" {
		return fmt.Errorf("serve requires -in")
	}
	media, err := os.ReadFile(*inPath)
	if err != nil {
		return err
	}
	// One registry carries every metric the process produces.
	reg, stopObserve := harness.Observe()
	defer stopObserve()
	cfg, err := sf.config()
	if err != nil {
		return err
	}
	cfg.Metrics = reg
	if *flight > 0 {
		// SIGQUIT dumps the flight ring to stderr without stopping the
		// server — the classic in-flight postmortem signal.
		defer harness.Flight(*flight, os.Stderr)()
		cfg.TraceNode = "ncserve"
	}
	if *brownout > 0 {
		cfg.Brownout = netio.BrownoutConfig{
			Interval: *brownout,
			OnTransition: func(from, to netio.BrownoutRung, pressure float64) {
				fmt.Fprintf(os.Stderr, "ncserve: brownout %s -> %s (pressure %.2f)\n", from, to, pressure)
			},
		}
	}
	srv, err := netio.NewServerFromConfig(media, rlnc.Params{BlockCount: sf.n, BlockSize: sf.k}, cfg)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	defer l.Close()

	// The first SIGINT/SIGTERM starts a graceful drain bounded by -drain; a
	// second signal (or -drain 0) shuts down immediately, shedding whatever
	// the ledger then reports as shed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		select {
		case <-ctx.Done():
			return
		case sig := <-sigs:
			if *drain <= 0 {
				cancel()
				return
			}
			fmt.Fprintf(os.Stderr, "ncserve: %v: draining for up to %v (redirect %q); signal again to shut down now\n",
				sig, *drain, *drainRedirect)
			dctx, dcancel := context.WithTimeout(ctx, *drain)
			defer dcancel()
			go func() {
				select {
				case <-sigs:
					dcancel()
				case <-dctx.Done():
				}
			}()
			if err := srv.Drain(dctx, *drainRedirect); err != nil {
				fmt.Fprintf(os.Stderr, "ncserve: drain: %v\n", err)
			}
			cancel()
		}
	}()

	if *metricsAddr != "" {
		bound, stopMetrics, err := harness.ServeMetrics(*metricsAddr, reg, func() map[string]any {
			return snapshotJSON(srv.Snapshot())
		})
		if err != nil {
			return err
		}
		defer stopMetrics()
		fmt.Printf("metrics on http://%s/metrics (JSON on /metrics.json, profiles on /debug/pprof/)\n", bound)
	}
	if *logEvery > 0 {
		go obs.LogEvery(ctx, os.Stderr, *logEvery, reg)
	}

	fmt.Printf("serving %d bytes as %d segments (n=%d, k=%d, mode=%s, kernel=%s) on %s\n",
		len(media), srv.Segments(), sf.n, sf.k, srv.Mode(), gf256.Kernel(), l.Addr())
	err = srv.Serve(ctx, l)
	if snap := srv.Snapshot(); ctx.Err() != nil || snap.Draining {
		// Interrupted: the server already shut down — gracefully when a
		// drain ran. The exit ledger must balance exactly: every offered
		// block was either fully written or explicitly shed.
		if snap.Draining {
			fmt.Printf("drain ledger: offered %d = sent %d + shed %d (consistent=%v), %d sessions served, %d busy, %d redirected, %d bytes\n",
				snap.BlocksOffered, snap.BlocksSent, snap.BlocksShed, snap.Consistent(),
				snap.SessionsTotal, snap.AdmissionBusy, snap.AdmissionRedirected, snap.BytesSent)
			return nil
		}
		fmt.Printf("shutdown: %d sessions served, %d blocks sent, %d shed, %d bytes\n",
			snap.SessionsTotal, snap.BlocksSent, snap.BlocksShed, snap.BytesSent)
		return nil
	}
	return err
}

// snapshotJSON flattens a netio.Snapshot for stable JSON field names; it is
// merged into the /metrics.json document alongside the registry metrics.
func snapshotJSON(s netio.Snapshot) map[string]any {
	per := make([]map[string]any, 0, len(s.PerSession))
	for _, ss := range s.PerSession {
		per = append(per, map[string]any{
			"id": ss.ID, "shard": ss.Shard, "addr": ss.Addr,
			"queue_len": ss.QueueLen, "queue_cap": ss.QueueCap,
			"offered": ss.Offered, "sent": ss.Sent, "shed": ss.Shed,
			"bytes": ss.Bytes, "duration_s": ss.Duration.Seconds(),
		})
	}
	shards := make([]map[string]any, 0, len(s.Shards))
	for _, sh := range s.Shards {
		shards = append(shards, map[string]any{
			"shard": sh.Shard, "sessions": sh.Sessions,
			"blocks_encoded": sh.BlocksEncoded, "blocks_offered": sh.BlocksOffered,
			"blocks_sent": sh.BlocksSent, "blocks_shed": sh.BlocksShed,
			"bytes_sent": sh.BytesSent, "encode_stall_s": sh.EncodeStall.Seconds(),
		})
	}
	return map[string]any{
		"version":              s.Version,
		"mode":                 s.Mode.String(),
		"sessions":             s.Sessions,
		"sessions_total":       s.SessionsTotal,
		"sessions_rejected":    s.SessionsRejected,
		"session_seconds":      s.SessionSeconds,
		"admission_busy":       s.AdmissionBusy,
		"admission_redirected": s.AdmissionRedirected,
		"brownout_rung":        s.BrownoutRung,
		"brownout_transitions": s.BrownoutTransitions,
		"draining":             s.Draining,
		"blocks_encoded":       s.BlocksEncoded,
		"blocks_offered":       s.BlocksOffered,
		"blocks_sent":          s.BlocksSent,
		"blocks_shed":          s.BlocksShed,
		"bytes_sent":           s.BytesSent,
		"encode_stall_s":       s.EncodeStall.Seconds(),
		"max_stall_s":          s.MaxEncodeStall.Seconds(),
		"shards":               shards,
		"per_session":          per,
	}
}

func runFetch(args []string) error {
	fs := flag.NewFlagSet("ncserve fetch", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9099", "server address")
	outPath := fs.String("out", "", "output file")
	timeout := fs.Duration("timeout", 0, "overall fetch timeout (0 = none)")
	attempts := fs.Int("attempts", 10, "connection attempt budget, including the first (0 = unlimited)")
	backoff := fs.Duration("backoff", 50*time.Millisecond, "initial reconnect backoff (doubles per retry)")
	backoffMax := fs.Duration("backoff-max", 2*time.Second, "reconnect backoff cap")
	resumePath := fs.String("resume", "", "resume-state file: loaded if present, written when the budget runs out, removed on success")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("fetch requires -out")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cfg := netio.DefaultFetcherConfig()
	cfg.MaxAttempts = *attempts
	cfg.BackoffBase, cfg.BackoffMax = *backoff, *backoffMax
	if *resumePath != "" {
		if state, err := os.ReadFile(*resumePath); err == nil {
			cfg.ResumeState = state
			fmt.Printf("resuming from %s (%d bytes of saved rank)\n", *resumePath, len(state))
		} else if !os.IsNotExist(err) {
			return err
		}
	}
	f, err := netio.NewFetcherFromConfig(harness.Dial(*addr), cfg)
	if err != nil {
		return err
	}
	res, err := f.Fetch(ctx)
	stats := res.Stats
	if err != nil {
		// Degrade gracefully: report the rank already earned and, with
		// -resume, persist it so the next invocation picks up from here.
		total := 0
		for _, r := range res.Ranks {
			total += r
		}
		fmt.Fprintf(os.Stderr, "fetch failed after %d attempts: %d/%d segments decoded, total rank %d\n",
			stats.Attempts, len(res.Segments), len(res.Ranks), total)
		if *resumePath != "" && total > 0 {
			if state, serr := f.State(); serr == nil {
				if werr := os.WriteFile(*resumePath, state, 0o644); werr == nil {
					fmt.Fprintf(os.Stderr, "progress saved to %s; rerun to resume\n", *resumePath)
				}
			}
		}
		return err
	}
	if err := os.WriteFile(*outPath, res.Payload, 0o644); err != nil {
		return err
	}
	if *resumePath != "" {
		os.Remove(*resumePath)
	}
	fmt.Printf("fetched %d bytes in %s mode from %d records (%d dependent, %.1f%% wire overhead)\n",
		len(res.Payload), res.Mode, stats.Records, stats.Dependent,
		(float64(stats.Bytes)/float64(len(res.Payload))-1)*100)
	fmt.Printf("faults: %d reconnects, %d framing resyncs, %d corrupt, %d malformed, %d bad-segment, %d resumed rank, %d bytes discarded\n",
		stats.Reconnects, stats.FramingResyncs, stats.Corrupt, stats.Malformed,
		stats.BadSegment, stats.ResumedRank, stats.BytesDiscarded)
	return nil
}

// runSmoke boots a server on a loopback listener, fetches the object back
// with several concurrent clients, and checks both the payloads and the
// metrics accounting — the CI end-to-end gate (`make serve-smoke`).
func runSmoke(args []string) error {
	fs := flag.NewFlagSet("ncserve smoke", flag.ContinueOnError)
	clients := fs.Int("clients", 4, "concurrent fetchers")
	size := fs.Int("size", 200_000, "media bytes")
	timeout := fs.Duration("timeout", 60*time.Second, "overall smoke deadline")
	var sf serveFlags
	sf.n, sf.k = 16, 1024
	fs.IntVar(&sf.queue, "queue", 64, "per-session send queue depth (records)")
	sf.registerMode(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	media := harness.Media(*size, 42)
	sf.deadline, sf.retries = 2*time.Second, 1
	cfg, err := sf.config()
	if err != nil {
		return err
	}
	srv, err := netio.NewServerFromConfig(media, rlnc.Params{BlockCount: sf.n, BlockSize: sf.k}, cfg)
	if err != nil {
		return err
	}
	addr, stop, err := harness.Serve(srv)
	if err != nil {
		return err
	}
	defer stop()

	// One-shot clients: a stream failure is final, as with netio.Fetch.
	fcfg := netio.DefaultFetcherConfig()
	fcfg.MaxAttempts = 1
	var wg sync.WaitGroup
	errs := make([]error, *clients)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := harness.Fetch(ctx, harness.Dial(addr), fcfg, media); err != nil {
				errs[i] = fmt.Errorf("client %d: %w", i, err)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}

	snap := stop()
	// All sessions have ended, so the strict ledger equality must hold.
	if !snap.Consistent() {
		return fmt.Errorf("accounting mismatch: offered %d != sent %d + shed %d",
			snap.BlocksOffered, snap.BlocksSent, snap.BlocksShed)
	}
	if snap.SessionsTotal != int64(*clients) {
		return fmt.Errorf("sessions_total = %d, want %d", snap.SessionsTotal, *clients)
	}
	fmt.Printf("smoke ok: %d clients, mode %s, %d blocks sent, %d shed, %d bytes, stall %s\n",
		*clients, snap.Mode, snap.BlocksSent, snap.BlocksShed, snap.BytesSent, snap.EncodeStall)
	return nil
}

// runMetricsSmoke is the observability end-to-end gate (`make
// metrics-smoke`): it boots a server with the metrics endpoint enabled,
// fetches the object back over loopback with a registry-attached resilient
// client, then scrapes /metrics over real HTTP, parses the exposition with
// the in-repo parser, and fails unless the core series are present and
// nonzero — server blocks, fetcher records, live histograms — and
// /metrics.json and /debug/pprof/ answer on their routes.
func runMetricsSmoke(args []string) error {
	fs := flag.NewFlagSet("ncserve metrics-smoke", flag.ContinueOnError)
	size := fs.Int("size", 200_000, "media bytes")
	timeout := fs.Duration("timeout", 60*time.Second, "overall smoke deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	reg, stopObserve := harness.Observe()
	defer stopObserve()
	media := harness.Media(*size, 43)
	cfg := netio.DefaultServerConfig()
	cfg.Metrics = reg
	srv, err := netio.NewServerFromConfig(media, rlnc.Params{BlockCount: 16, BlockSize: 1024}, cfg)
	if err != nil {
		return err
	}
	addr, stop, err := harness.Serve(srv)
	if err != nil {
		return err
	}
	defer stop()
	bound, stopMetrics, err := harness.ServeMetrics("127.0.0.1:0", reg, func() map[string]any {
		return snapshotJSON(srv.Snapshot())
	})
	if err != nil {
		return err
	}
	defer stopMetrics()

	fcfg := netio.DefaultFetcherConfig()
	fcfg.Metrics = reg
	if _, err := harness.Fetch(ctx, harness.Dial(addr), fcfg, media); err != nil {
		return fmt.Errorf("loopback fetch: %w", err)
	}
	stop()

	base := "http://" + bound
	// The scrape itself: 200, text/plain, and a body the in-repo parser takes.
	series, err := harness.Series(func(w io.Writer) error {
		return checkRoute(ctx, http.MethodGet, base+"/metrics", http.StatusOK, "Content-Type", "text/plain", w)
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
	histograms := 0
	for _, name := range reg.Names() {
		if v, ok := reg.HistogramView(name); ok && v.Count > 0 && v.P50 > 0 {
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
		if err := checkRoute(ctx, http.MethodGet, base+path, http.StatusOK, "Content-Type", wantType, nil); err != nil {
			return err
		}
	}
	if err := checkRoute(ctx, http.MethodGet, base+"/nope", http.StatusNotFound, "", "", nil); err != nil {
		return err
	}
	// The exposition routes must refuse mutations with a correct 405 (not the
	// catch-all 404) and stamp nosniff on every response.
	for _, path := range []string{"/metrics", "/metrics.json", "/debug/flight"} {
		if err := checkRoute(ctx, http.MethodPost, base+path, http.StatusMethodNotAllowed, "", "", nil); err != nil {
			return err
		}
	}
	if err := checkRoute(ctx, http.MethodGet, base+"/metrics", http.StatusOK, "X-Content-Type-Options", "nosniff", nil); err != nil {
		return err
	}
	fmt.Printf("metrics-smoke ok: %d series scraped, %d populated histograms, blocks sent %.0f, fetch records %.0f\n",
		len(series), histograms, series["netio_blocks_sent"], series["fetch_records"])
	return nil
}

// runXorSmoke is the end-to-end gate for the systematic + XOR wire mode
// (`make xor-smoke`): a systematic server, one clean loopback fetch and one
// through a lossy faultnet link, both byte-verified. The clean leg must cost
// exactly one sweep — n × segments records read, nothing encoded, nothing
// shed; the lossy leg must have gone through loss handling — a need record
// answered with repair, or a reconnect that resumed rank. Then a registry
// scrape must show the rlnc.xor_absorb stage with nonzero traffic, proving
// the decoders actually rode the GF(2) fast path instead of silently falling
// back to dense elimination.
func runXorSmoke(args []string) error {
	fs := flag.NewFlagSet("ncserve xor-smoke", flag.ContinueOnError)
	size := fs.Int("size", 200_000, "media bytes")
	timeout := fs.Duration("timeout", 60*time.Second, "overall smoke deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	reg, stopObserve := harness.Observe()
	defer stopObserve()
	media := harness.Media(*size, 44)
	cfg := netio.DefaultServerConfig()
	cfg.Mode = netio.ModeSystematic
	cfg.Metrics = reg
	p := rlnc.Params{BlockCount: 16, BlockSize: 1024}
	srv, err := netio.NewServerFromConfig(media, p, cfg)
	if err != nil {
		return err
	}
	addr, stop, err := harness.Serve(srv)
	if err != nil {
		return err
	}
	defer stop()

	// Leg 1: clean loopback — one sweep and nothing else.
	fcfg := netio.DefaultFetcherConfig()
	res, err := harness.Fetch(ctx, harness.Dial(addr), fcfg, media)
	if err != nil {
		return fmt.Errorf("clean systematic fetch: %w", err)
	}
	if res.Mode != netio.ModeSystematic {
		return fmt.Errorf("clean fetch negotiated %s, want systematic", res.Mode)
	}
	if sweep := p.BlockCount * srv.Segments(); res.Stats.Records != sweep {
		return fmt.Errorf("clean systematic fetch read %d records, want one sweep of %d", res.Stats.Records, sweep)
	}
	if snap := srv.Snapshot(); snap.BlocksEncoded != 0 || snap.BlocksShed != 0 {
		return fmt.Errorf("clean systematic fetch cost %d encoded and %d shed blocks, want none", snap.BlocksEncoded, snap.BlocksShed)
	}

	// Leg 2: the loss sweep — corruption and resets force the repair and
	// reconnect machinery through the same negotiated mode.
	dial, ctr := faultnet.Dialer(faultnet.Config{
		Seed:         45,
		CorruptEvery: 4000,
		ResetEvery:   60000,
		MaxReadChunk: 512,
	}, harness.Dial(addr))
	fcfg.BackoffBase, fcfg.BackoffMax = time.Millisecond, 20*time.Millisecond
	lres, err := harness.Fetch(ctx, dial, fcfg, media)
	if err != nil {
		return fmt.Errorf("lossy systematic fetch: %w (faults %+v)", err, ctr.View())
	}
	stop()

	// The proof obligation: the GF(2) fast path must have absorbed records.
	v, ok := reg.HistogramView("rlnc.xor_absorb")
	if !ok || v.Count == 0 {
		return fmt.Errorf("rlnc.xor_absorb stage saw no traffic (ok=%v): XOR fast path never engaged", ok)
	}
	// And it must survive the text exposition round trip, where the CI
	// scrape reads it.
	series, err := harness.Series(reg.WriteText)
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
	fmt.Printf("xor-smoke ok: mode %s, %d xor absorbs, clean %d records, lossy %d records (%d need records, %d reconnects, %d corrupt, %d resyncs, faults %+v)\n",
		srv.Mode(), v.Count, res.Stats.Records, lres.Stats.Records, needs, lres.Stats.Reconnects,
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
