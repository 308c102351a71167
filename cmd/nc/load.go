package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/harness"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

type options struct {
	sessions   int
	steps      int
	shards     []int
	systematic bool
	window     time.Duration
	settle     time.Duration
	canaries   int
	chaos      bool
	blockCount int
	blockSize  int
	segments   int
	queueDepth int
	seed       int64
	rampChunk  int
	smoke      bool
	maxP99     time.Duration
}

// waveCfg is one shard-count × depth point of the ladder.
type waveCfg struct {
	wire     netio.WireMode
	shards   int
	sessions int
}

func (w waveCfg) benchName() string {
	name := fmt.Sprintf("BenchmarkServeLoad/shards=%d/sessions=%d", w.shards, w.sessions)
	if w.wire != netio.ModeDense {
		name += "/wire=" + w.wire.String()
	}
	return name
}

// waveResult is one measured point of the saturation curve.
type waveResult struct {
	window  time.Duration
	mbps    float64
	p50     time.Duration
	p99     time.Duration
	shedPct float64
}

func runLoad(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("nc load", flag.ContinueOnError)
	var (
		sessions   = fs.Int("sessions", 5120, "peak concurrent raw sessions per wave")
		steps      = fs.Int("steps", 3, "ramp depths per shard count (each doubling up to -sessions)")
		shardsFlag = fs.String("shards", "1,2,4", "comma-separated pump shard counts")
		systematic = fs.Bool("systematic", true, "add one systematic-wire wave at peak depth")
		window     = fs.Duration("window", 3*time.Second, "measurement window per wave")
		settle     = fs.Duration("settle", 500*time.Millisecond, "post-ramp settle before the window opens")
		canaries   = fs.Int("canaries", 4, "fully-decoding fetcher sessions per wave (payload verified)")
		chaos      = fs.Bool("chaos", false, "route canary fetchers through a lossy faultnet link")
		blockCount = fs.Int("block-count", 16, "coded blocks per segment (n)")
		blockSize  = fs.Int("block-size", 1024, "block size in bytes (k)")
		segments   = fs.Int("segments", 4, "segments in the served object")
		queueDepth = fs.Int("queue-depth", 64, "per-session send queue depth in records")
		rampChunk  = fs.Int("ramp-chunk", 256, "sessions dialed per ramp chunk")
		smoke      = fs.Bool("smoke", false, "one gated 1k-session wave (CI mode, -race friendly)")
		maxP99     = fs.Duration("max-p99", 2*time.Second, "smoke gate: max windowed p99 record latency")
	)
	c := common{seed: 1}
	c.register(fs, "seed", "summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	shardList, err := parseShards(*shardsFlag)
	if err != nil {
		return err
	}
	opt := options{
		sessions: *sessions, steps: *steps, shards: shardList,
		systematic: *systematic, window: *window, settle: *settle,
		canaries: *canaries, chaos: *chaos,
		blockCount: *blockCount, blockSize: *blockSize, segments: *segments,
		queueDepth: *queueDepth, seed: c.seed, rampChunk: *rampChunk,
		smoke: *smoke, maxP99: *maxP99,
	}
	if opt.smoke {
		// The CI gate: one wave, scaled to finish quickly under -race.
		opt.sessions, opt.steps = 1024, 1
		opt.shards = []int{4}
		opt.window, opt.settle = time.Second, 300*time.Millisecond
		opt.canaries, opt.systematic = 2, false
	}
	if opt.sessions < 1 || opt.steps < 1 || opt.rampChunk < 1 {
		return fmt.Errorf("sessions, steps, and ramp-chunk must be positive")
	}
	raiseFDLimit()

	lg := log.New(os.Stderr, "nc load: ", log.Ltime)
	sum := &loadSummary{Smoke: opt.smoke}
	verdict := harness.Verdict{Seed: opt.seed, Fields: sum, Invariants: map[string]bool{}, SummaryPath: c.summary}
	return verdict.Finish(runLadder(opt, out, lg, sum, verdict.Invariants), os.Stderr)
}

// loadSummary is what one load run adds to its -summary verdict: every
// measured saturation point.
type loadSummary struct {
	Smoke bool          `json:"smoke"`
	Waves []waveSummary `json:"waves,omitempty"`
}

// waveSummary is one saturation-curve point in the JSON summary.
type waveSummary struct {
	Name     string  `json:"name"`
	Sessions int     `json:"sessions"`
	MBps     float64 `json:"mb_per_s"`
	P50Ns    int64   `json:"p50_ns"`
	P99Ns    int64   `json:"p99_ns"`
	ShedPct  float64 `json:"shed_pct"`
}

// runLadder drives the ramp ladder and emits the go-bench result lines.
func runLadder(opt options, out io.Writer, lg *log.Logger, sum *loadSummary, invariants map[string]bool) error {
	fmt.Fprintf(out, "goos: %s\ngoarch: %s\npkg: extremenc/cmd/nc\n", runtime.GOOS, runtime.GOARCH)
	for _, wave := range buildWaves(opt) {
		lg.Printf("wave %s: ramping %d sessions", wave.benchName(), wave.sessions)
		start := time.Now()
		res, err := runWave(wave, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", wave.benchName(), err)
		}
		lg.Printf("wave %s: %.1f MB/s, p50 %v, p99 %v, shed %.2f%% (%.0fs total)",
			wave.benchName(), res.mbps, res.p50, res.p99, res.shedPct,
			time.Since(start).Seconds())
		fmt.Fprintf(out, "%s \t%8d\t%12d ns/op\t%10.2f MB/s\t%12d p50-ns\t%12d p99-ns\t%8.3f shed-pct\n",
			wave.benchName(), 1, res.window.Nanoseconds(), res.mbps,
			res.p50.Nanoseconds(), res.p99.Nanoseconds(), res.shedPct)
		sum.Waves = append(sum.Waves, waveSummary{
			Name: wave.benchName(), Sessions: wave.sessions, MBps: res.mbps,
			P50Ns: res.p50.Nanoseconds(), P99Ns: res.p99.Nanoseconds(), ShedPct: res.shedPct,
		})
	}
	// Every wave that completed passed its internal gates: ledger exactness
	// and byte-identical canaries always, plus the p99 bound under -smoke.
	invariants["ledgers_balanced"] = true
	invariants["canaries_identical"] = true
	if opt.smoke {
		invariants["p99_within_gate"] = true
	}
	return nil
}

func parseShards(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad shard count %q", f)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty shard list")
	}
	sort.Ints(out)
	return out, nil
}

// buildWaves lays out the ladder: every depth at each shard count, then one
// systematic-wire wave at peak depth and max shards so the curve records the
// XOR fast path's serving profile too.
func buildWaves(opt options) []waveCfg {
	depths := make([]int, 0, opt.steps)
	for i := opt.steps - 1; i >= 0; i-- {
		d := opt.sessions >> i
		if d < 1 || (len(depths) > 0 && d == depths[len(depths)-1]) {
			continue
		}
		depths = append(depths, d)
	}
	var waves []waveCfg
	for _, d := range depths {
		for _, s := range opt.shards {
			waves = append(waves, waveCfg{netio.ModeDense, s, d})
		}
	}
	if opt.systematic {
		peak := depths[len(depths)-1]
		maxShards := opt.shards[len(opt.shards)-1]
		waves = append(waves, waveCfg{netio.ModeSystematic, maxShards, peak})
	}
	return waves
}

func runWave(wave waveCfg, opt options) (waveResult, error) {
	var res waveResult
	reg, stopObserve := harness.Observe()
	defer stopObserve()

	p := rlnc.Params{BlockCount: opt.blockCount, BlockSize: opt.blockSize}
	media := harness.Media(opt.segments*p.SegmentSize()-13, opt.seed)

	scfg := netio.DefaultServerConfig()
	scfg.QueueDepth = opt.queueDepth
	scfg.Seed = opt.seed
	// Measurement clients drain at full speed, but the deepest waves starve
	// individual readers for whole scheduler rotations; a wide deadline
	// budget keeps the default hostile-peer eviction profile from shrinking
	// the fleet mid-wave.
	scfg.WriteDeadline = 30 * time.Second
	scfg.WriteRetries = 4
	scfg.PumpShards = wave.shards
	scfg.Mode = wave.wire
	scfg.Metrics = reg
	srv, err := netio.NewServerFromConfig(media, p, scfg)
	if err != nil {
		return res, err
	}
	addr, stop, err := harness.Serve(srv)
	if err != nil {
		return res, err
	}
	defer stop()

	// The raw fleet: each session dials, handshakes, and then drains records
	// at wire speed until closed. Deep waves ramp slowly but arrive at a
	// steady state.
	fleet, err := harness.RampFleet(addr, wave.sessions, opt.rampChunk, 0)
	if err != nil {
		return res, fmt.Errorf("ramp: %w", err)
	}
	defer fleet.Close()
	for deadline := time.Now().Add(5 * time.Minute); ; time.Sleep(10 * time.Millisecond) {
		if srv.Snapshot().Sessions >= wave.sessions {
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("only %d of %d sessions registered after ramp",
				srv.Snapshot().Sessions, wave.sessions)
		}
	}

	// Canary fetchers: full decoding sessions riding the same load, each
	// verified byte-identical. With -chaos they dial through a lossy faultnet
	// link and must still converge via reconnects.
	canaryCtx, cancelCanaries := context.WithTimeout(context.Background(),
		opt.settle+opt.window+2*time.Minute)
	defer cancelCanaries()
	dial := harness.Dial(addr)
	if opt.chaos {
		dial, _ = faultnet.Dialer(faultnet.Config{
			Seed:         opt.seed,
			CorruptEvery: 4000,
			ResetEvery:   3000,
			MaxReadChunk: 2048,
		}, dial)
	}
	canaryErrs := make(chan error, opt.canaries)
	for i := 0; i < opt.canaries; i++ {
		go func() {
			_, err := harness.Fetch(canaryCtx, dial, netio.DefaultFetcherConfig(), media)
			if err != nil {
				err = fmt.Errorf("canary %d: %w", i, err)
			}
			canaryErrs <- err
		}()
	}

	// The measurement window: throughput from the BytesSent delta, latency
	// quantiles from the windowed difference of two record_send snapshots.
	time.Sleep(opt.settle)
	hist := reg.Histogram("netio.record_send", "")
	h0 := hist.View()
	s0 := srv.Snapshot()
	t0 := time.Now()
	time.Sleep(opt.window)
	s1 := srv.Snapshot()
	h1 := hist.View()
	elapsed := time.Since(t0)

	for i := 0; i < opt.canaries; i++ {
		if err := <-canaryErrs; err != nil {
			return res, err
		}
	}

	// Teardown, then the exactness gates: the fleet hangs up, the server
	// drains, and the ledger must balance per shard and in aggregate.
	fleet.Close()
	final := stop()
	if final.BlocksOffered != final.BlocksSent+final.BlocksShed {
		return res, fmt.Errorf("aggregate ledger: offered %d != sent %d + shed %d",
			final.BlocksOffered, final.BlocksSent, final.BlocksShed)
	}
	for _, sh := range final.Shards {
		if !sh.Consistent() {
			return res, fmt.Errorf("shard %d ledger: offered %d != sent %d + shed %d",
				sh.Shard, sh.BlocksOffered, sh.BlocksSent, sh.BlocksShed)
		}
	}

	d := h1.Sub(h0)
	res.window = elapsed
	res.mbps = float64(s1.BytesSent-s0.BytesSent) / elapsed.Seconds() / 1e6
	res.p50, res.p99 = d.P50, d.P99
	if offered := s1.BlocksOffered - s0.BlocksOffered; offered > 0 {
		res.shedPct = 100 * float64(s1.BlocksShed-s0.BlocksShed) / float64(offered)
	}
	if d.Count == 0 {
		return res, fmt.Errorf("no record sends landed in the measurement window")
	}

	if opt.smoke {
		if err := smokeGates(reg, wave, d, opt.maxP99); err != nil {
			return res, err
		}
	}
	return res, nil
}

// smokeGates re-checks the wave from the outside: the windowed p99 bound and
// exact accounting read back from one scraped Prometheus exposition, so the
// CI gate exercises the full metrics path rather than trusting Snapshot.
func smokeGates(reg *obs.Registry, wave waveCfg, window obs.HistogramView, maxP99 time.Duration) error {
	if window.P99 > maxP99 {
		return fmt.Errorf("windowed p99 record latency %v exceeds gate %v", window.P99, maxP99)
	}
	vals, err := harness.Series(reg.WriteText)
	if err != nil {
		return err
	}
	for _, key := range []string{"netio_blocks_offered", "netio_blocks_sent", "netio_blocks_shed", "netio_pump_shards"} {
		if _, ok := vals[key]; !ok {
			return fmt.Errorf("%s missing from the scraped exposition", key)
		}
	}
	if vals["netio_blocks_offered"] != vals["netio_blocks_sent"]+vals["netio_blocks_shed"] {
		return fmt.Errorf("scraped ledger: offered %.0f != sent %.0f + shed %.0f",
			vals["netio_blocks_offered"], vals["netio_blocks_sent"], vals["netio_blocks_shed"])
	}
	if got := int(vals["netio_pump_shards"]); got != wave.shards {
		return fmt.Errorf("scraped netio_pump_shards = %d, want %d", got, wave.shards)
	}
	return nil
}
