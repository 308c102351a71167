package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/harness"
	"extremenc/internal/mesh"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

// event is one step of a mesh schedule.
type event int

const (
	evLeafWave    event = iota // a wave of leaves fetches to completion
	evDrain                    // graceful drain-restart of one relay mid-wave
	evSlowReaders              // a leaf wave beside slow readers on one relay
	evKill                     // abrupt relay kill mid-wave (remediation reroutes)
)

func (e event) String() string {
	return [...]string{"leaf-wave", "drain-restart", "slow-readers", "kill"}[e]
}

// meshRun is one nc mesh invocation: its preset's flags, then the mesh and
// what the schedule's events tally for the invariant checks and the summary.
type meshRun struct {
	common
	soak, trace, smoke     bool
	events, relays, leaves int
	mode                   string
	xor, chaos, warm       bool
	originSessions         int
	originPace             time.Duration
	kill                   int
	killAt                 int64
	snapshot, flightOut    string
	bench                  string

	m     *mesh.Mesh
	media []byte
	rng   *rand.Rand
	out   io.Writer
	sum   meshSummary
}

// meshSummary is what one run adds to its -summary verdict — the schedule
// shape and the degradation headline numbers.
type meshSummary struct {
	Events     int     `json:"events"`
	ElapsedS   float64 `json:"elapsed_s"`
	LeavesDone int     `json:"leaves_done"`
	Drains     int     `json:"drains"`
	Kills      int     `json:"kills"`
	Stalls     int     `json:"stall_waves"` // slow-reader waves
	Redirects  int     `json:"redirects_honored"`
}

// meshPreset returns the defaults of the preset the two flags select.
func meshPreset(soak, trace bool) meshRun {
	shared := common{n: 16, k: 512, size: 28_000}
	switch {
	case soak:
		shared.seed, shared.timeout, shared.flight = 1, 4*time.Minute, 1<<16
		return meshRun{common: shared, soak: true, events: 20, relays: 3, mode: "systematic", xor: true,
			chaos: true, warm: true, flightOut: "flight-soak.json"}
	case trace:
		shared.seed, shared.timeout, shared.flight = 7, 3*time.Minute, 1<<18
		return meshRun{common: shared, trace: true, relays: 2, leaves: 4, mode: "dense",
			chaos: true, warm: true, flightOut: "flight-trace.json", bench: "BENCH_host.json"}
	}
	shared.seed, shared.k, shared.size, shared.timeout = 7, 1024, 200_000, 2*time.Minute
	return meshRun{common: shared, relays: 3, leaves: 4, mode: "systematic", xor: true,
		originSessions: 1, killAt: 30, warm: true, flightOut: "flight-mesh.json"}
}

// flags binds r's flags, r's values as defaults: every preset's when all is
// set, else only those of the preset r holds.
func (r *meshRun) flags(all bool) *flag.FlagSet {
	fs := flag.NewFlagSet("nc mesh", flag.ContinueOnError)
	fs.BoolVar(&r.soak, "soak", r.soak, "preset: the randomized chaos soak, its schedule drawn from -seed")
	fs.BoolVar(&r.trace, "trace", r.trace, "preset: a slow-reader wave then a leaf wave through a traced chaos mesh, then the tracing gates")
	r.register(fs, "seed", "n", "k", "size", "timeout", "summary", "flight", "metrics", "v")
	fs.IntVar(&r.relays, "relays", r.relays, "relay count")
	fs.StringVar(&r.flightOut, "flight-out", r.flightOut, "write the flight-recorder dump here when the run fails")
	if all || r.soak {
		fs.BoolVar(&r.smoke, "smoke", false, "fixed seed, event count and relay count: the deterministic CI slice")
		fs.IntVar(&r.events, "events", r.events, "schedule length (at most relays-2 kills)")
	}
	if all || r.trace {
		fs.StringVar(&r.bench, "bench", r.bench, "committed benchmark baseline for the encode-batch gate")
	}
	if all || !r.soak {
		fs.IntVar(&r.leaves, "leaves", r.leaves, "leaf fetchers per wave")
	}
	if all || !r.soak && !r.trace {
		fs.StringVar(&r.mode, "mode", r.mode, "origin wire mode: dense or systematic")
		fs.BoolVar(&r.xor, "xor", r.xor, "relays recombine on the GF(2) XOR fast path (XNC2 downstream framing)")
		fs.IntVar(&r.originSessions, "origin-sessions", r.originSessions, "origin concurrent-session cap (0 = unlimited)")
		fs.DurationVar(&r.originPace, "origin-pace", 0, "origin pump-round floor, modeling a constrained uplink (0 = unpaced)")
		fs.BoolVar(&r.chaos, "chaos", false, "wrap inter-tier links in faultnet corruption + resets")
		fs.IntVar(&r.kill, "kill", 0, "relays to kill mid-transfer (remediation must reroute their leaves)")
		fs.Int64Var(&r.killAt, "kill-at", r.killAt, "total leaf records received before the kill fires")
		fs.BoolVar(&r.warm, "warm", r.warm, "wait for every relay to hold full rank before starting leaves")
		fs.StringVar(&r.snapshot, "snapshot", "", "write the final mesh snapshot as JSON to this file (- for stdout)")
	}
	return fs
}

func runMesh(args []string, out io.Writer) error {
	// A first, silent parse finds the preset; the second parses with its
	// defaults and takes only its flags.
	r := meshPreset(false, false)
	fs := r.flags(true)
	fs.SetOutput(io.Discard)
	fs.Parse(args) //nolint:errcheck — the parse below reports
	if r.soak && r.trace {
		return errors.New("-soak and -trace are separate presets")
	}
	r = meshPreset(r.soak, r.trace)
	if err := r.flags(false).Parse(args); err != nil {
		return err
	}
	if r.smoke {
		r.seed, r.events, r.relays = 1, 12, 3
	}
	if r.soak && r.relays < 3 {
		return fmt.Errorf("-relays %d: the soak needs at least 3 (drains redirect to a survivor)", r.relays)
	}
	if r.kill >= r.relays {
		return fmt.Errorf("-kill %d would leave no relay for %d relays", r.kill, r.relays)
	}
	if _, err := netio.ParseWireMode(r.mode); err != nil {
		return err
	}
	r.out = out

	// The trace gates on the disabled path and the codec run first: the
	// recorder and the span sink are still off, as in every untraced process.
	var tg traceGates
	if r.trace {
		tg.allocs, tg.bench = disabledPathAllocs(), benchGate(r.bench, benchTol, out)
	}
	if r.flight > 0 {
		defer harness.Flight(r.flight, os.Stderr)()
	}
	verdict := harness.Verdict{
		Seed: r.seed, Fields: &r.sum, Invariants: map[string]bool{},
		SummaryPath: r.summary, FlightPath: r.flightOut,
	}
	return verdict.Finish(r.run(tg, verdict.Invariants), out)
}

// schedule is the preset's event sequence.
func (r *meshRun) schedule(rng *rand.Rand) []event {
	switch {
	case r.soak:
		return makeSchedule(rng, r.events)
	case r.trace:
		return []event{evSlowReaders, evLeafWave}
	}
	return []event{evLeafWave}
}

// makeSchedule draws the event sequence from rng, then guarantees coverage: a
// soak that happened to roll no drain or no slow-reader wave would gate
// nothing, so any missing mandatory event type is appended (deterministically
// — the append depends only on the draw).
func makeSchedule(rng *rand.Rand, events int) []event {
	schedule := make([]event, 0, events+3)
	for i := 0; i < events; i++ {
		switch roll := rng.Intn(10); {
		case roll < 4:
			schedule = append(schedule, evLeafWave)
		case roll < 7:
			schedule = append(schedule, evDrain)
		case roll < 9:
			schedule = append(schedule, evSlowReaders)
		default:
			schedule = append(schedule, evKill)
		}
	}
	for _, must := range []event{evLeafWave, evDrain, evSlowReaders} {
		if !slices.Contains(schedule, must) {
			schedule = append(schedule, must)
		}
	}
	return schedule
}

// topology is the mesh every preset runs. With -chaos both tiers pass through
// faultnet corruption and resets, under heartbeat and health thresholds wide
// enough that a starved heartbeat never buries a live relay; a schedule with
// slow-reader waves runs twitchy relays.
func (r *meshRun) topology(reg *obs.Registry, twitchy bool) mesh.Topology {
	mode, _ := netio.ParseWireMode(r.mode) // checked by runMesh
	topo := mesh.Topology{
		Media:             r.media,
		Params:            rlnc.Params{BlockCount: r.n, BlockSize: r.k},
		Relays:            r.relays,
		OriginMode:        mode,
		XorRecode:         r.xor,
		OriginMaxSessions: r.originSessions,
		OriginPace:        r.originPace,
		Seed:              r.seed,
		Traced:            r.flight > 0 && !r.soak,
		Registry:          reg,
	}
	if r.chaos {
		topo.UpstreamFaults = &faultnet.Config{Seed: r.seed + 1, CorruptEvery: 9000, ResetEvery: 6000, MaxReadChunk: 2048}
		topo.DownstreamFaults = &faultnet.Config{Seed: r.seed + 2, CorruptEvery: 9000, ResetEvery: 5000, MaxReadChunk: 2048}
		topo.Heartbeat, topo.Sweep = 10*time.Millisecond, 25*time.Millisecond
		topo.Health = mesh.HealthConfig{SuspectAfter: 500 * time.Millisecond, DeadAfter: 2 * time.Second}
	}
	if twitchy {
		// Every relay, and every replacement server a drain installs.
		topo.RelayServerOpts = func(int) []netio.ServerOption { return []netio.ServerOption{harness.Twitchy} }
	}
	if r.kill > 0 {
		// Once the leaves have received -kill-at records in total —
		// mid-transfer — relay-0 … relay-(kill-1) die abruptly and the
		// remediator must walk their leaves to survivors.
		var tapped atomic.Int64
		topo.LeafFetchOpts = func(int) []netio.FetcherOption {
			return []netio.FetcherOption{netio.WithRecordTap(func(*rlnc.CodedBlock) {
				if tapped.Add(1) != r.killAt {
					return
				}
				for i := range r.kill {
					if err := r.m.KillRelay(fmt.Sprintf("relay-%d", i)); err != nil {
						fmt.Fprintf(os.Stderr, "nc mesh: kill relay-%d: %v\n", i, err)
					}
				}
			})}
		}
	}
	return topo
}

// run brings the mesh up, plays the schedule, checks the invariants and tears
// down, recording each verdict in invariants.
func (r *meshRun) run(tg traceGates, invariants map[string]bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
	defer cancel()

	// One stream seeds media and schedule, so both reproduce from -seed.
	r.rng = rand.New(rand.NewSource(r.seed))
	r.media = make([]byte, r.size)
	r.rng.Read(r.media)
	schedule := r.schedule(r.rng)
	r.sum.Events = len(schedule)

	// The leak check brackets the whole mesh lifetime.
	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()
	reg, stopObserve := harness.Observe()
	defer stopObserve()
	if r.trace {
		// SetSink already resolved the stages into reg, so these are the very
		// histograms the hot paths feed.
		for _, name := range exemplarStages {
			reg.Histogram(name, "").EnableExemplars(0.99)
		}
	}

	var err error
	if r.m, err = mesh.New(r.topology(reg, slices.Contains(schedule, evSlowReaders))); err != nil {
		return err
	}
	if err := r.m.Start(ctx); err != nil {
		return err
	}
	defer r.m.Close()
	r.logf("mesh up: origin %s (%s, cap %d), %d relays\n", r.m.OriginAddr(), r.m.Origin().Mode(), r.originSessions, r.relays)
	stopMetrics, err := r.serveMetrics(reg, func() map[string]any { return map[string]any{"mesh": r.m.Snapshot()} }, r.out)
	if err != nil {
		return err
	}
	defer stopMetrics()
	if r.warm {
		if err := r.m.WaitWarm(ctx); err != nil {
			return err
		}
	}

	start := time.Now()
	for i, ev := range schedule {
		r.logf("event %d/%d: %s\n", i+1, len(schedule), ev)
		if err := r.step(ctx, ev); err != nil {
			return fmt.Errorf("event %d (%s, seed %d): %w", i+1, ev, r.seed, err)
		}
	}
	elapsed := time.Since(start)
	r.sum.ElapsedS = elapsed.Seconds()
	invariants["payloads_identical"] = true // every wave byte-verified in step
	if err := r.checkInvariants(ctx, reg, invariants); err != nil {
		return fmt.Errorf("invariant (seed %d): %w", r.seed, err)
	}
	snap := r.m.Snapshot()

	// Tear the mesh down first: every root span has ended, so the trees the
	// trace gates assemble are complete. The sink and the metrics endpoint go
	// before the leak check, so no closure pins the mesh.
	r.m.Close()
	if r.trace {
		if err := tg.check(r, reg, invariants); err != nil {
			return err
		}
	}
	stopMetrics()
	stopObserve()
	if err := waitGoroutines(baseGoroutines+3, 10*time.Second); err != nil {
		invariants["no_goroutine_leak"] = false
		return fmt.Errorf("leak (seed %d): %w", r.seed, err)
	}
	invariants["no_goroutine_leak"] = true

	fmt.Fprintf(r.out,
		"%s ok (seed %d): %d events in %v — %d leaves byte-identical, %d drains, %d kills, %d slow-reader waves, %d redirects honored, %d records tapped, %d blocks recoded, %d remediations\n",
		r.name(), r.seed, len(schedule), elapsed.Round(time.Millisecond),
		r.sum.LeavesDone, r.sum.Drains, r.sum.Kills, r.sum.Stalls, r.sum.Redirects,
		snap.Tapped, snap.Emitted, snap.Remediations)
	if r.snapshot == "" {
		return nil
	}
	doc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if r.snapshot == "-" {
		_, err = r.out.Write(doc)
		return err
	}
	if err := os.WriteFile(r.snapshot, doc, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(r.out, "snapshot written to %s\n", r.snapshot)
	return nil
}

// name is the preset's: mesh, soak or trace.
func (r *meshRun) name() string {
	switch {
	case r.soak:
		return "soak"
	case r.trace:
		return "trace"
	}
	return "mesh"
}

func (r *meshRun) logf(format string, args ...any) {
	if r.verbose {
		fmt.Fprintf(r.out, format, args...)
	}
}

func (r *meshRun) step(ctx context.Context, ev event) error {
	switch ev {
	case evLeafWave:
		size := r.leaves
		if size == 0 {
			size = 2 + r.rng.Intn(3)
		}
		return r.leafWave(ctx, size, ev, "")
	case evDrain:
		id, ok := r.pickRelay()
		if !ok {
			return r.leafWave(ctx, 2, ev, "") // no drainable relay left; keep going
		}
		r.sum.Drains++
		return r.leafWave(ctx, 2, ev, id)
	case evSlowReaders:
		r.sum.Stalls++
		return r.slowReaderWave(ctx)
	case evKill:
		if r.sum.Kills >= r.relays-2 {
			return r.leafWave(ctx, 2, ev, "") // kill budget spent; keep going
		}
		id, ok := r.pickRelay()
		if !ok {
			return r.leafWave(ctx, 2, ev, "")
		}
		r.sum.Kills++
		return r.leafWave(ctx, 2, ev, id)
	}
	return fmt.Errorf("unknown event %d", ev)
}

// pickRelay draws a uniformly random active relay. The draw consumes rng even
// when it fails, keeping the schedule deterministic.
func (r *meshRun) pickRelay() (string, bool) {
	ids := r.m.Pool().InState(mesh.StateActive)
	if len(ids) == 0 {
		r.rng.Intn(1)
		return "", false
	}
	return ids[r.rng.Intn(len(ids))], true
}

// leafWave runs count leaves to completion and byte-verifies each. With a
// relay id, ev (a drain-restart or a kill) hits that relay once every leaf of
// the wave has records in hand; its leaves must follow the REDIRECT or be
// remediated and still finish intact.
func (r *meshRun) leafWave(ctx context.Context, count int, ev event, id string) error {
	wave := make([]*mesh.Leaf, 0, count)
	for range count {
		leaf, err := r.m.AddLeaf(ctx)
		if err != nil {
			return err
		}
		wave = append(wave, leaf)
	}
	if id != "" {
		for deadline := time.Now().Add(30 * time.Second); slices.ContainsFunc(wave, func(l *mesh.Leaf) bool { return l.Records() == 0 }); {
			if time.Now().After(deadline) {
				return fmt.Errorf("wave never started moving before the %s of %s", ev, id)
			}
			time.Sleep(time.Millisecond)
		}
		if ev == evKill {
			if err := r.m.KillRelay(id); err != nil {
				return err
			}
			r.logf("  killed %s\n", id)
		} else {
			dctx, dcancel := context.WithTimeout(ctx, 30*time.Second)
			err := r.m.RestartRelay(dctx, id)
			dcancel()
			if err != nil {
				return fmt.Errorf("drain-restart %s: %w", id, err)
			}
			addr, _ := r.m.Pool().Addr(id)
			r.logf("  drained %s -> back at %s\n", id, addr)
		}
	}
	if err := r.m.WaitLeaves(ctx, wave...); err != nil {
		return err
	}
	if err := harness.VerifyLeaves(r.media, wave...); err != nil {
		return err
	}
	for _, leaf := range wave {
		r.sum.Redirects += leaf.FetchStats().AdmissionRedirected
		r.logf("  leaf %d ok: %d records, %d reconnects, %d redirects, %v\n",
			leaf.ID, leaf.Records(), leaf.Reconnects(), leaf.Redirector().Redirects(), leaf.Duration())
	}
	r.sum.LeavesDone += len(wave)
	return nil
}

// slowReaderWave parks the harness's slow readers on the relay the wave's
// first leaf is routed to — no leaf holds a route between waves, so the
// coordinator picks the first usable relay — and runs a two-leaf wave beside
// them. The leaves must finish byte-identical, and one of them must have been
// served by that relay: credit keeps what the readers are owed from starving it.
func (r *meshRun) slowReaderWave(ctx context.Context) error {
	usable := r.m.Pool().Usable("")
	if len(usable) == 0 {
		return errors.New("no usable relay for the slow readers")
	}
	id := usable[0]
	target := r.m.Relays()[slices.IndexFunc(r.m.Relays(), func(rl *mesh.Relay) bool { return rl.ID() == id })]
	before := target.Server().Snapshot().SessionsTotal
	if err := harness.SlowReaders(target.Addr(), func() error { return r.leafWave(ctx, 2, evSlowReaders, "") }); err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	leafSessions := target.Server().Snapshot().SessionsTotal - before - 4
	if leafSessions < 1 {
		return fmt.Errorf("%s: no leaf of the wave was served beside the slow readers", id)
	}
	r.logf("  slow readers on %s: %d leaf sessions served beside them\n", id, leafSessions)
	return nil
}

// checkInvariants asserts the degradation promises once the schedule is
// done: rank never regressed, the -kill victims were buried and their leaves
// moved, and every relay's ledger — across drains, kills and survivors —
// balances once its sessions settle.
func (r *meshRun) checkInvariants(ctx context.Context, reg *obs.Registry, invariants map[string]bool) error {
	v, _ := reg.CounterValue("mesh.rank_regressions_total")
	if invariants["rank_monotone"] = v == 0; v != 0 {
		return fmt.Errorf("rank regressed %d times", v)
	}
	if r.kill > 0 {
		// Leaves can finish before the failure detector's DeadAfter window
		// closes; give the health sweeps time to bury the victims.
		if err := poll(ctx, 10*time.Millisecond, func() bool { return len(r.m.Pool().InState(mesh.StateDead)) >= r.kill }); err != nil {
			return fmt.Errorf("killed %d relays but the pool buried only %d: %w", r.kill, len(r.m.Pool().InState(mesh.StateDead)), err)
		}
		r.sum.Kills = r.kill
		if invariants["remediated"] = r.m.Remediator().Remediations() > 0; !invariants["remediated"] {
			return errors.New("relays died but the remediator moved no leaves")
		}
	}
	lctx, lcancel := context.WithTimeout(ctx, 15*time.Second)
	defer lcancel()
	var unbalanced []string
	err := poll(lctx, 5*time.Millisecond, func() bool {
		unbalanced = unbalanced[:0]
		for _, rl := range r.m.Relays() {
			if v := rl.Ledger(); !v.Consistent() {
				unbalanced = append(unbalanced,
					fmt.Sprintf("%s: offered %d != sent %d + shed %d", rl.ID(), v.BlocksOffered, v.BlocksSent, v.BlocksShed))
			}
		}
		return len(unbalanced) == 0
	})
	if invariants["ledgers_balanced"] = err == nil; err != nil {
		return fmt.Errorf("ledgers never balanced: %s: %w", strings.Join(unbalanced, "; "), err)
	}
	return nil
}

// poll calls done every interval until it reports true or ctx ends.
func poll(ctx context.Context, interval time.Duration, done func() bool) error {
	for !done() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(interval):
		}
	}
	return nil
}

// waitGoroutines polls until the live goroutine count settles at or below
// limit, or the deadline passes.
func waitGoroutines(limit int, wait time.Duration) error {
	deadline := time.Now().Add(wait)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= limit {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("%d goroutines still live (limit %d):\n%s", runtime.NumGoroutine(), limit, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
