// Command nc runs the coded-content delivery stack over real sockets: it
// serves an object, fetches it back, and runs the end-to-end gates on the
// server, its serving capacity and the recoding relay mesh.
//
// Usage:
//
//	nc serve -listen 127.0.0.1:9099 -in media.bin -n 32 -k 4096 \
//	    -queue 64 -deadline 5s -metrics 127.0.0.1:9100 -log-every 10s
//	nc fetch -addr 127.0.0.1:9099 -out media-copy.bin -timeout 30s \
//	    -attempts 10 -backoff 50ms -backoff-max 2s -resume fetch.state
//	nc smoke [serve|metrics|xor ...] [-clients 4 -mode systematic]
//	nc load -sessions 5120 | go run ./cmd/benchjson
//	nc mesh -relays 3 -leaves 4 -chaos -kill 1 -snapshot mesh.json
//	nc mesh -soak -smoke -summary soak-summary.json
//	nc mesh -trace
//
// serve streams a media file to every client: one sweep per session — n dense
// GF(2^8) counter records of each segment, encoded once per server (-mode
// dense), or the source blocks (-mode systematic) — followed, only for a
// client that says it still lacks rank, by fresh dense records or by GF(2) XOR
// repair and a dense tail. Slow clients shed records instead of stalling the
// encoder. -metrics serves Prometheus text on
// /metrics, a JSON snapshot on /metrics.json, the flight ring on /debug/flight
// and the profiles under /debug/pprof/; SIGQUIT dumps the flight ring to
// stderr; the first SIGINT/SIGTERM drains gracefully.
//
// fetch reconnects on resets and framing loss with capped exponential backoff,
// carrying decoder rank across connections; -resume persists that rank when
// the attempt budget runs out so a later invocation continues from it.
//
// smoke boots a loopback server per gate and checks what it served: serve
// (concurrent fetchers, payloads and exact accounting), metrics (an HTTP
// scrape parsed by the in-repo parser, every route answering) and xor (a
// clean systematic fetch costs exactly one sweep, a lossy one goes through
// loss handling, and the GF(2) fast path saw traffic). With no gate named it
// runs all three.
//
// load is the serving-capacity ladder: thousands of raw sessions plus a few
// decoding canaries per wave, the saturation curve printed as go-bench lines;
// -smoke runs one gated 1k-session wave.
//
// mesh runs one seeded schedule of events — leaf waves, drain-restarts, relay
// kills, leaf waves beside slow readers — against an in-process recoding mesh
// (origin → relays → leaves on loopback TCP), byte-verifies every leaf, and
// then checks that rank never regressed, every relay ledger balances, and no
// goroutine outlived teardown. The presets fix the schedule:
//
//   - default: one leaf wave; -chaos adds faultnet corruption and resets
//     between the tiers, -kill relays die mid-transfer once the leaves hold
//     -kill-at records and remediation must reroute their leaves.
//   - -soak: the randomized chaos soak, a schedule drawn from -seed; -smoke
//     pins seed, length and relay count to the CI slice.
//   - -trace: a slow-reader wave then a leaf wave through a traced chaos mesh,
//     reassembled from the flight ring into per-generation latency and gated
//     on zero orphan spans, a linked exemplar, admission and reconnect flight
//     events, an allocation-free disabled path and the encode-batch ratio of
//     BENCH_host.json.
//
// A failed gate writes its flight dump (-flight-out) and, with -summary, a
// JSON verdict naming the seed and every invariant checked.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"extremenc/internal/harness"
	"extremenc/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "nc:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return errors.New("usage: nc serve|fetch|smoke|load|mesh [flags]")
	}
	cmd, ok := map[string]func([]string, io.Writer) error{
		"serve": runServe, "fetch": runFetch, "smoke": runSmoke, "load": runLoad, "mesh": runMesh,
	}[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
	return cmd(args[1:], stdout)
}

// common holds the flags the subcommands share. Each subcommand sets its own
// defaults and registers the ones it takes.
type common struct {
	seed    int64
	n, k    int
	size    int
	timeout time.Duration
	summary string
	flight  int
	metrics string
	verbose bool
}

// register adds the named common flags to fs, each defaulting to c's value.
func (c *common) register(fs *flag.FlagSet, names ...string) {
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.Int64Var(&c.seed, "seed", c.seed, "seed for media, schedule, coefficients and chaos (a failure reproduces from it)")
	all.IntVar(&c.n, "n", c.n, "blocks per segment")
	all.IntVar(&c.k, "k", c.k, "bytes per block")
	all.IntVar(&c.size, "size", c.size, "media bytes")
	all.DurationVar(&c.timeout, "timeout", c.timeout, "overall deadline")
	all.StringVar(&c.summary, "summary", "", "write a machine-readable JSON run summary to this path")
	all.IntVar(&c.flight, "flight", c.flight, "flight-recorder ring capacity in events (0 = off), dumpable on /debug/flight and SIGQUIT")
	all.StringVar(&c.metrics, "metrics", "", "HTTP address for /metrics, /metrics.json, /debug/flight and /debug/pprof/ (empty = off)")
	all.BoolVar(&c.verbose, "v", false, "narrate the run")
	for _, name := range names {
		f := all.Lookup(name)
		fs.Var(f.Value, name, f.Usage)
	}
}

// serveMetrics serves reg, with extra merged into /metrics.json, on -metrics
// and says where; stop (repeatable) shuts it down, a no-op when -metrics is off.
func (c *common) serveMetrics(reg *obs.Registry, extra func() map[string]any, out io.Writer) (stop func(), err error) {
	if c.metrics == "" {
		return func() {}, nil
	}
	bound, stop, err := harness.ServeMetrics(c.metrics, reg, extra)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "metrics on http://%s/metrics (JSON on /metrics.json, profiles on /debug/pprof/)\n", bound)
	return stop, nil
}
