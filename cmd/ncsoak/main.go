// Command ncsoak is the randomized chaos soak: a seeded schedule of leaf
// waves, graceful drain-restarts, abrupt relay kills, and slow-client
// brownout pressure runs against an in-process recoding mesh whose links all
// pass through faultnet corruption and resets. The soak is a property
// checker, not a benchmark — after the schedule it asserts the degradation
// invariants the paper's delivery model promises:
//
//   - every completed leaf transfer is byte-identical to the origin media
//   - decoder rank never regresses across reconnects, redirects, or
//     remediations (mesh.rank_regressions_total == 0)
//   - every relay's traffic ledger balances exactly — offered == sent +
//     shed — across every server it ran, drained, killed, or survived
//   - the brownout ladder engaged at least one rung under pressure and
//     stepped back to off when the pressure lifted
//   - the process leaks no goroutines: after teardown the count returns to
//     its pre-mesh level
//
// The schedule is fully determined by -seed, so any failure reproduces from
// its seed. With -smoke the run pins seed and event count to a fixed,
// CI-sized slice (~a dozen events, well under 30s); that is the `make
// soak-smoke` gate.
//
// Usage:
//
//	ncsoak -smoke
//	ncsoak -seed 42 -events 30 -relays 4 -v
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/harness"
	"extremenc/internal/mesh"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ncsoak:", err)
		os.Exit(1)
	}
}

// event is one step of the soak schedule.
type event int

const (
	evLeafWave event = iota // a wave of leaves fetches to completion
	evDrain                 // graceful drain-restart of one relay mid-wave
	evStall                 // slow clients pin a relay until brownout engages
	evKill                  // abrupt relay kill mid-wave (remediation reroutes)
)

func (e event) String() string {
	return [...]string{"leaf-wave", "drain-restart", "brownout-stall", "kill"}[e]
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ncsoak", flag.ContinueOnError)
	smoke := fs.Bool("smoke", false, "fixed seed and event count: the deterministic CI slice")
	seed := fs.Int64("seed", 1, "schedule / media / chaos seed (any failure reproduces from it)")
	events := fs.Int("events", 20, "schedule length")
	relays := fs.Int("relays", 3, "relay count (at most relays-2 are ever killed)")
	n := fs.Int("n", 16, "blocks per segment")
	k := fs.Int("k", 512, "bytes per block")
	size := fs.Int("size", 28_000, "media bytes")
	timeout := fs.Duration("timeout", 4*time.Minute, "overall soak deadline")
	verbose := fs.Bool("v", false, "log every event and brownout transition")
	summaryPath := fs.String("summary", "", "write a machine-readable JSON run summary to this path")
	flightRing := fs.Int("flight", 1<<16, "flight-recorder ring capacity in events (0 = off)")
	flightPath := fs.String("flight-out", "flight-soak.json", "write the flight-recorder dump here when the soak fails")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := soakConfig{
		seed: *seed, events: *events, relays: *relays,
		params: rlnc.Params{BlockCount: *n, BlockSize: *k}, size: *size,
		timeout: *timeout, verbose: *verbose,
	}
	if *smoke {
		cfg.seed, cfg.events, cfg.relays = 1, 12, 3
	}
	if cfg.relays < 3 {
		return fmt.Errorf("-relays %d: the soak needs at least 3 (drains redirect to a survivor)", cfg.relays)
	}

	// The flight ring records admission, brownout, shed, reconnect, and fault
	// events through the whole schedule; a failing soak dumps it for the
	// postmortem alongside the reproducing seed.
	if *flightRing > 0 {
		trace.Enable(*flightRing)
		defer trace.Disable()
	}
	sum := &soakSummary{}
	verdict := harness.Verdict{
		Seed: cfg.seed, Fields: sum, Invariants: map[string]bool{},
		SummaryPath: *summaryPath, FlightPath: *flightPath,
	}
	return verdict.Finish(soakMain(cfg, stdout, sum, verdict.Invariants), stdout)
}

// soakConfig is one soak's shape, as the flags (or -smoke) fix it.
type soakConfig struct {
	seed    int64
	events  int
	relays  int
	params  rlnc.Params
	size    int
	timeout time.Duration
	verbose bool
}

// soakSummary is what one soak adds to its -summary verdict — the schedule
// shape and the degradation headline numbers — uploaded as a CI artifact.
type soakSummary struct {
	Events     int     `json:"events"`
	ElapsedS   float64 `json:"elapsed_s"`
	LeavesDone int     `json:"leaves_done"`
	Drains     int     `json:"drains"`
	Kills      int     `json:"kills"`
	Stalls     int     `json:"stall_waves"`
	Redirects  int     `json:"redirects_honored"`
	PeakRung   int     `json:"brownout_peak_rung"`
}

func soakMain(cfg soakConfig, stdout io.Writer, sum *soakSummary, invariants map[string]bool) error {
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()

	// One stream seeds media and schedule, so both reproduce from -seed.
	rng := rand.New(rand.NewSource(cfg.seed))
	media := make([]byte, cfg.size)
	rng.Read(media)
	schedule := makeSchedule(rng, cfg.events)
	sum.Events = len(schedule)

	// The leak check brackets the whole mesh lifetime.
	runtime.GC()
	baseGoroutines := runtime.NumGoroutine()

	reg, stopObserve := harness.Observe()
	defer stopObserve()

	topo := mesh.Topology{
		Media:      media,
		Params:     cfg.params,
		Relays:     cfg.relays,
		OriginMode: netio.ModeSystematic,
		XorRecode:  true,
		Seed:       cfg.seed,
		Registry:   reg,
		Heartbeat:  10 * time.Millisecond,
		Sweep:      25 * time.Millisecond,
		Health:     mesh.HealthConfig{SuspectAfter: 500 * time.Millisecond, DeadAfter: 2 * time.Second},
		UpstreamFaults: &faultnet.Config{
			Seed: cfg.seed + 1, CorruptEvery: 9000, ResetEvery: 6000, MaxReadChunk: 2048,
		},
		DownstreamFaults: &faultnet.Config{
			Seed: cfg.seed + 2, CorruptEvery: 9000, ResetEvery: 5000, MaxReadChunk: 2048,
		},
		// Every relay (and every replacement server a drain installs) runs
		// the twitchy brownout controller, so stall waves engage the ladder
		// in milliseconds.
		RelayServerOpts: func(relay int) []netio.ServerOption {
			opts := []netio.ServerOption{harness.Twitchy}
			if cfg.verbose {
				opts = append(opts, func(c *netio.ServerConfig) {
					c.Brownout.OnTransition = func(from, to netio.BrownoutRung, p float64) {
						fmt.Fprintf(stdout, "  brownout relay-%d: %s -> %s (pressure %.2f)\n", relay, from, to, p)
					}
				})
			}
			return opts
		},
	}
	m, err := mesh.New(topo)
	if err != nil {
		return err
	}
	if err := m.Start(ctx); err != nil {
		return err
	}
	defer m.Close()

	s := &soak{
		m: m, media: media, rng: rng, stdout: stdout, verbose: cfg.verbose,
		maxKills: cfg.relays - 2,
	}
	if err := m.WaitWarm(ctx); err != nil {
		return err
	}

	start := time.Now()
	for i, ev := range schedule {
		if cfg.verbose {
			fmt.Fprintf(stdout, "event %d/%d: %s\n", i+1, len(schedule), ev)
		}
		if err := s.step(ctx, ev); err != nil {
			return fmt.Errorf("event %d (%s, seed %d): %w", i+1, ev, cfg.seed, err)
		}
	}
	elapsed := time.Since(start)
	sum.ElapsedS = elapsed.Seconds()
	sum.LeavesDone, sum.Drains, sum.Kills = s.leavesDone, s.drains, s.kills
	sum.Stalls, sum.Redirects, sum.PeakRung = s.stalls, s.redirects, s.peakRung
	invariants["payloads_identical"] = true // every wave byte-verified in step

	if err := s.checkInvariants(ctx, reg, invariants); err != nil {
		return fmt.Errorf("invariant (seed %d): %w", cfg.seed, err)
	}

	// Teardown, then the goroutine count must settle back to baseline. The
	// sink is detached first so registry closures don't pin the mesh.
	m.Close()
	stopObserve()
	if err := waitGoroutines(baseGoroutines+3, 10*time.Second); err != nil {
		invariants["no_goroutine_leak"] = false
		return fmt.Errorf("leak (seed %d): %w", cfg.seed, err)
	}
	invariants["no_goroutine_leak"] = true

	fmt.Fprintf(stdout,
		"soak ok (seed %d): %d events in %v — %d leaves byte-identical, %d drains, %d kills, %d stall waves, %d redirects honored, brownout peak rung %d\n",
		cfg.seed, len(schedule), elapsed.Round(time.Millisecond), s.leavesDone, s.drains, s.kills, s.stalls, s.redirects, s.peakRung)
	return nil
}

// makeSchedule draws the event sequence from rng, then guarantees coverage:
// a soak that happened to roll no drain or no stall wave would gate nothing,
// so any missing mandatory event type is appended (deterministically — the
// append depends only on the draw).
func makeSchedule(rng *rand.Rand, events int) []event {
	schedule := make([]event, 0, events+3)
	for i := 0; i < events; i++ {
		switch roll := rng.Intn(10); {
		case roll < 4:
			schedule = append(schedule, evLeafWave)
		case roll < 7:
			schedule = append(schedule, evDrain)
		case roll < 9:
			schedule = append(schedule, evStall)
		default:
			schedule = append(schedule, evKill)
		}
	}
	for _, must := range []event{evLeafWave, evDrain, evStall} {
		seen := false
		for _, ev := range schedule {
			if ev == must {
				seen = true
				break
			}
		}
		if !seen {
			schedule = append(schedule, must)
		}
	}
	return schedule
}

// soak executes schedule events sequentially against one mesh and tallies
// what the invariant checks need.
type soak struct {
	m       *mesh.Mesh
	media   []byte
	rng     *rand.Rand
	stdout  io.Writer
	verbose bool

	maxKills   int
	kills      int
	drains     int
	stalls     int
	leavesDone int
	redirects  int
	peakRung   int
}

func (s *soak) step(ctx context.Context, ev event) error {
	switch ev {
	case evLeafWave:
		return s.leafWave(ctx, 2+s.rng.Intn(3), "")
	case evDrain:
		id, ok := s.pickRelay(mesh.StateActive)
		if !ok {
			return s.leafWave(ctx, 2, "") // no drainable relay left; keep soaking
		}
		s.drains++
		return s.leafWave(ctx, 2, id)
	case evStall:
		s.stalls++
		return s.stallRelay(ctx)
	case evKill:
		if s.kills >= s.maxKills {
			return s.leafWave(ctx, 2, "") // kill budget spent; keep soaking
		}
		id, ok := s.pickRelay(mesh.StateActive)
		if !ok {
			return s.leafWave(ctx, 2, "")
		}
		s.kills++
		return s.killWave(ctx, id)
	}
	return fmt.Errorf("unknown event %d", ev)
}

// pickRelay draws a uniformly random relay currently in state st. The draw
// consumes rng even when it fails, keeping the schedule deterministic.
func (s *soak) pickRelay(st mesh.State) (string, bool) {
	ids := s.m.Pool().InState(st)
	if len(ids) == 0 {
		s.rng.Intn(1)
		return "", false
	}
	return ids[s.rng.Intn(len(ids))], true
}

// leafWave runs count leaves to completion and byte-verifies each. When
// drainID is set, that relay is gracefully drain-restarted while the wave is
// in flight — its leaves must follow the REDIRECT (or be remediated) and
// still finish intact.
func (s *soak) leafWave(ctx context.Context, count int, drainID string) error {
	wave := make([]*mesh.Leaf, 0, count)
	for i := 0; i < count; i++ {
		leaf, err := s.m.AddLeaf(ctx)
		if err != nil {
			return err
		}
		wave = append(wave, leaf)
	}
	if drainID != "" {
		// Wait for motion so the drain lands mid-transfer, not before it.
		for deadline := time.Now().Add(30 * time.Second); ; {
			moving := 0
			for _, leaf := range wave {
				if leaf.Records() > 0 {
					moving++
				}
			}
			if moving == len(wave) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("wave never started moving before draining %s", drainID)
			}
			time.Sleep(time.Millisecond)
		}
		dctx, dcancel := context.WithTimeout(ctx, 30*time.Second)
		err := s.m.RestartRelay(dctx, drainID)
		dcancel()
		if err != nil {
			return fmt.Errorf("drain-restart %s: %w", drainID, err)
		}
		if s.verbose {
			fmt.Fprintf(s.stdout, "  drained %s -> back at %s\n", drainID, s.addrOf(drainID))
		}
	}
	if err := s.m.WaitLeaves(ctx, wave...); err != nil {
		return err
	}
	return s.verify(wave)
}

// verify byte-checks a finished wave and tallies it.
func (s *soak) verify(wave []*mesh.Leaf) error {
	if err := harness.VerifyLeaves(s.media, wave...); err != nil {
		return err
	}
	for _, leaf := range wave {
		s.redirects += leaf.FetchStats().AdmissionRedirected
	}
	s.leavesDone += len(wave)
	return nil
}

// killWave kills relay id mid-wave; remediation must reroute its leaves and
// the wave must still finish byte-identical.
func (s *soak) killWave(ctx context.Context, id string) error {
	wave := make([]*mesh.Leaf, 0, 2)
	for i := 0; i < 2; i++ {
		leaf, err := s.m.AddLeaf(ctx)
		if err != nil {
			return err
		}
		wave = append(wave, leaf)
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		moving := 0
		for _, leaf := range wave {
			if leaf.Records() > 0 {
				moving++
			}
		}
		if moving == len(wave) {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wave never started moving before killing %s", id)
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.m.KillRelay(id); err != nil {
		return err
	}
	if s.verbose {
		fmt.Fprintf(s.stdout, "  killed %s\n", id)
	}
	if err := s.m.WaitLeaves(ctx, wave...); err != nil {
		return err
	}
	return s.verify(wave)
}

// stallRelay runs the harness stall wave against one random active relay:
// slow readers until its brownout ladder climbs, release, wait for off.
func (s *soak) stallRelay(ctx context.Context) error {
	id, ok := s.pickRelay(mesh.StateActive)
	if !ok {
		return errors.New("no active relay to stall")
	}
	var target *mesh.Relay
	for _, r := range s.m.Relays() {
		if r.ID() == id {
			target = r
			break
		}
	}
	peak, err := harness.Stall(ctx, target.Server(), target.Addr())
	s.peakRung = max(s.peakRung, int(peak))
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	if s.verbose {
		fmt.Fprintf(s.stdout, "  stalled %s: peak rung %d, transitions %d, back to off\n",
			id, s.peakRung, target.Server().Snapshot().BrownoutTransitions)
	}
	return nil
}

func (s *soak) addrOf(id string) string {
	addr, _ := s.m.Pool().Addr(id)
	return addr
}

// checkInvariants asserts the soak's promises after the schedule completes,
// recording each verdict into sum for the machine-readable summary.
func (s *soak) checkInvariants(ctx context.Context, reg *obs.Registry, invariants map[string]bool) error {
	v, _ := reg.CounterValue("mesh.rank_regressions_total")
	invariants["rank_monotone"] = v == 0
	if v != 0 {
		return fmt.Errorf("rank regressed %d times", v)
	}
	invariants["brownout_engaged"] = s.peakRung > 0
	if s.peakRung == 0 {
		return errors.New("brownout ladder never engaged")
	}

	// Every relay's ledger — across drains, kills, and survivors — must
	// balance exactly once its sessions settle.
	deadline := time.Now().Add(15 * time.Second)
	for {
		var unbalanced []string
		for _, r := range s.m.Relays() {
			if v := r.Ledger(); !v.Consistent() {
				unbalanced = append(unbalanced,
					fmt.Sprintf("%s: offered %d != sent %d + shed %d", r.ID(), v.BlocksOffered, v.BlocksSent, v.BlocksShed))
			}
		}
		if len(unbalanced) == 0 {
			invariants["ledgers_balanced"] = true
			return nil
		}
		if time.Now().After(deadline) {
			invariants["ledgers_balanced"] = false
			return fmt.Errorf("ledgers never balanced: %s", strings.Join(unbalanced, "; "))
		}
		select {
		case <-ctx.Done():
			invariants["ledgers_balanced"] = false
			return fmt.Errorf("ledgers never balanced: %w", ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
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
