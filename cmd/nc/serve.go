package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"extremenc/internal/gf256"
	"extremenc/internal/harness"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

// serveFlags are the session-layer tunables of serve; the smoke's serve gate
// takes -queue and -mode of them.
type serveFlags struct {
	queue    int
	deadline time.Duration
	maxSess  int
	mode     string
}

func (sf *serveFlags) register(fs *flag.FlagSet) {
	fs.DurationVar(&sf.deadline, "deadline", 10*time.Second, "write deadline per flush, and a session's idle budget (0 disables)")
	fs.IntVar(&sf.maxSess, "max-sessions", 0, "concurrent session cap (0 = unlimited)")
	sf.registerSmoke(fs)
}

func (sf *serveFlags) registerSmoke(fs *flag.FlagSet) {
	fs.IntVar(&sf.queue, "queue", 64, "per-session send queue depth (records)")
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
	cfg.MaxSessions = sf.maxSess
	cfg.Mode = mode
	return cfg, nil
}

func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nc serve", flag.ContinueOnError)
	listen := fs.String("listen", "127.0.0.1:9099", "listen address")
	inPath := fs.String("in", "", "media file to serve")
	logEvery := fs.Duration("log-every", 0, "interval between structured progress lines on stderr (0 = off)")
	drain := fs.Duration("drain", 10*time.Second,
		"graceful drain deadline on SIGINT/SIGTERM: in-flight sessions run to rank completion while new connections get BUSY (0 = immediate shutdown)")
	c := common{n: 32, k: 4096, flight: 16384}
	c.register(fs, "n", "k", "metrics", "flight")
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
	if c.flight > 0 {
		// SIGQUIT dumps the flight ring to stderr without stopping the
		// server — the classic in-flight postmortem signal.
		defer harness.Flight(c.flight, os.Stderr)()
		cfg.TraceNode = "serve"
	}
	srv, err := netio.NewServerFromConfig(media, rlnc.Params{BlockCount: c.n, BlockSize: c.k}, cfg)
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
			fmt.Fprintf(os.Stderr, "nc serve: %v: draining for up to %v; signal again to shut down now\n",
				sig, *drain)
			dctx, dcancel := context.WithTimeout(ctx, *drain)
			defer dcancel()
			go func() {
				select {
				case <-sigs:
					dcancel()
				case <-dctx.Done():
				}
			}()
			if err := srv.Drain(dctx); err != nil {
				fmt.Fprintf(os.Stderr, "nc serve: drain: %v\n", err)
			}
			cancel()
		}
	}()

	stopMetrics, err := c.serveMetrics(reg, func() map[string]any { return map[string]any{"server": srv.Snapshot()} }, out)
	if err != nil {
		return err
	}
	defer stopMetrics()
	if *logEvery > 0 {
		go obs.LogEvery(ctx, os.Stderr, *logEvery, reg)
	}

	fmt.Fprintf(out, "serving %d bytes as %d segments (n=%d, k=%d, mode=%s, kernel=%s) on %s\n",
		len(media), srv.Segments(), c.n, c.k, srv.Mode(), gf256.Kernel(), l.Addr())
	err = srv.Serve(ctx, l)
	if snap := srv.Snapshot(); ctx.Err() != nil || snap.Draining {
		// Interrupted: the server already shut down — gracefully when a
		// drain ran. The exit ledger must balance exactly: every offered
		// block was either fully written or explicitly shed.
		if snap.Draining {
			fmt.Fprintf(out, "drain ledger: offered %d = sent %d + shed %d (consistent=%v), %d sessions served, %d busy, %d bytes\n",
				snap.BlocksOffered, snap.BlocksSent, snap.BlocksShed, snap.Consistent(),
				snap.SessionsTotal, snap.AdmissionBusy, snap.BytesSent)
			return nil
		}
		fmt.Fprintf(out, "shutdown: %d sessions served, %d blocks sent, %d shed, %d bytes\n",
			snap.SessionsTotal, snap.BlocksSent, snap.BlocksShed, snap.BytesSent)
		return nil
	}
	return err
}

func runFetch(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nc fetch", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9099", "server address")
	outPath := fs.String("out", "", "output file")
	attempts := fs.Int("attempts", 10, "connection attempt budget, including the first (0 = unlimited)")
	backoff := fs.Duration("backoff", 50*time.Millisecond, "initial reconnect backoff (doubles per retry)")
	backoffMax := fs.Duration("backoff-max", 2*time.Second, "reconnect backoff cap")
	resumePath := fs.String("resume", "", "resume-state file: loaded if present, written when the budget runs out, removed on success")
	var c common
	c.register(fs, "timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *outPath == "" {
		return fmt.Errorf("fetch requires -out")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	cfg := netio.DefaultFetcherConfig()
	cfg.MaxAttempts = *attempts
	cfg.BackoffBase, cfg.BackoffMax = *backoff, *backoffMax
	if *resumePath != "" {
		if state, err := os.ReadFile(*resumePath); err == nil {
			cfg.ResumeState = state
			fmt.Fprintf(out, "resuming from %s (%d bytes of saved rank)\n", *resumePath, len(state))
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
	fmt.Fprintf(out, "fetched %d bytes in %s mode from %d records (%d dependent, %.1f%% wire overhead)\n",
		len(res.Payload), res.Mode, stats.Records, stats.Dependent,
		(float64(stats.Bytes)/float64(len(res.Payload))-1)*100)
	fmt.Fprintf(out, "faults: %d reconnects, %d framing resyncs, %d corrupt, %d malformed, %d bad-segment, %d resumed rank, %d bytes discarded\n",
		stats.Reconnects, stats.FramingResyncs, stats.Corrupt, stats.Malformed,
		stats.BadSegment, stats.ResumedRank, stats.BytesDiscarded)
	return nil
}
