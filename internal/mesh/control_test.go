package mesh

import (
	"context"
	"errors"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extremenc/internal/obs"
)

// fakeClock gives the control plane a hand-cranked time source so health
// thresholds are tested deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock(ctl *Control) *fakeClock {
	c := &fakeClock{t: time.Unix(1000, 0)}
	ctl.now = c.now
	return c
}

// testStall is the rank-stall window of the hand-cranked tests.
const testStall = 300 * time.Millisecond

// fakeRelay is what a hand-cranked test's member probe reads: a rank and an
// open flag the test sets between Steps.
type fakeRelay struct {
	rank   int
	closed bool
}

func (f *fakeRelay) probe() (int, bool) { return f.rank, !f.closed }

// activeControl returns a control plane on a fake clock with the given
// relays registered at addr-<id>, each at full rank 8 (so none ever stalls),
// and the fakes their probes read.
func activeControl(t *testing.T, ids ...string) (*Control, *fakeClock, map[string]*fakeRelay) {
	t.Helper()
	c := NewControl(testStall)
	clock := newFakeClock(c)
	relays := map[string]*fakeRelay{}
	for _, id := range ids {
		relays[id] = &fakeRelay{rank: 8}
		if err := c.Add(id, "addr-"+id, relays[id].probe, 8); err != nil {
			t.Fatal(err)
		}
	}
	return c, clock, relays
}

func TestControlLifecycle(t *testing.T) {
	c := NewControl(testStall)
	r1 := &fakeRelay{}
	if err := c.Add("r1", "addr1", r1.probe, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("r1", "addr1", r1.probe, 8); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if s, _ := c.StateOf("r1"); s != StateActive {
		t.Fatalf("fresh member state %v, want active", s)
	}
	if got := c.InState(StateActive); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("InState(active) = %v", got)
	}
	if addr, ok := c.Addr("r1"); !ok || addr != "addr1" {
		t.Fatalf("Addr = %q, %v", addr, ok)
	}
	if _, ok := c.StateOf("ghost"); ok {
		t.Fatal("unknown member reported present")
	}
}

// TestControlUsable: the one rule for where a leaf may be pointed — the
// active members, never the excluded one, never a suspect, draining or dead
// one.
func TestControlUsable(t *testing.T) {
	c, clock, relays := activeControl(t, "a", "b", "c", "d", "e")
	relays["c"].rank = 2 // stalls below full
	relays["e"].closed = true
	c.SetDraining("d")
	c.Step() // records c's rank-2 progress point
	clock.advance(testStall + time.Millisecond)
	c.Step()
	for id, want := range map[string]State{"a": StateActive, "b": StateActive, "c": StateSuspect, "d": StateDraining, "e": StateDead} {
		if s, _ := c.StateOf(id); s != want {
			t.Fatalf("%s is %v, want %v", id, s, want)
		}
	}
	if got := c.Usable(""); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("usable = %v, want the active members", got)
	}
	if got := c.Usable("a"); !reflect.DeepEqual(got, []string{"b"}) {
		t.Fatalf("usable excluding a = %v, want [b]", got)
	}
}

// TestControlSweepTransitions: rank progress is all an open member is judged
// by — suspect while it stalls below full, active once it grows, never
// suspect at full rank — and a closed one is dead for good.
func TestControlSweepTransitions(t *testing.T) {
	c := NewControl(testStall)
	clock := newFakeClock(c)
	r := &fakeRelay{}
	if err := c.Add("r", "a", r.probe, 4); err != nil {
		t.Fatal(err)
	}
	state := func() State { s, _ := c.StateOf("r"); return s }

	// Rank stall: the member is quarantined as suspect, never buried.
	for i := 0; i < 10; i++ {
		clock.advance(50 * time.Millisecond)
		c.Step()
	}
	if s := state(); s != StateSuspect {
		t.Fatalf("rank-stalled member state %v, want suspect", s)
	}
	if c.deaths.Load() != 0 {
		t.Fatal("rank stall counted as a death")
	}

	// Progress: active again at once, and suspect again once it stalls.
	r.rank = 2
	c.Step()
	if s := state(); s != StateActive {
		t.Fatalf("member whose rank grew is %v, want active", s)
	}
	clock.advance(testStall + time.Millisecond)
	c.Step()
	if s := state(); s != StateSuspect {
		t.Fatalf("member stalled at rank 2 is %v, want suspect", s)
	}

	// A warm relay (rank == full) never re-trips the stall detector.
	r.rank = 4
	for i := 0; i < 10; i++ {
		c.Step()
		clock.advance(testStall)
	}
	if s := state(); s != StateActive {
		t.Fatalf("warm member state %v, want active", s)
	}

	// Closed: dead at the next sweep, and death is terminal.
	r.closed = true
	c.Step()
	if s := state(); s != StateDead || c.deaths.Load() != 1 {
		t.Fatalf("closed member state %v after %d deaths, want dead after 1", s, c.deaths.Load())
	}
	r.closed, r.rank = false, 5
	c.Step()
	if s := state(); s != StateDead || c.deaths.Load() != 1 {
		t.Fatalf("reopened member state %v after %d deaths, want dead after 1", s, c.deaths.Load())
	}
}

// TestControlReadsItsRelays: on a frozen clock, a member whose probe reports
// closed is dead after exactly one Step, with its leaves on the survivor and
// relay_deaths_total at 1; more Steps change nothing; a draining member that
// closes is not buried; and a rank-stalled member stays suspect and
// unassignable across Steps until its rank grows.
func TestControlReadsItsRelays(t *testing.T) {
	c, clock, relays := activeControl(t, "dies", "lives", "drains")
	reg := obs.NewRegistry()
	if err := c.Instrument(reg); err != nil {
		t.Fatal(err)
	}
	deaths := func() int64 { v, _ := reg.CounterValue("mesh.relay_deaths_total"); return v }
	for i := 0; i < 6; i++ {
		if _, _, err := c.assign(i); err != nil {
			t.Fatal(err)
		}
	}
	c.SetDraining("drains") // its leaves go to the other two
	onDies := 0
	for i := 0; i < 6; i++ {
		if id, _ := c.RouteOf(i); id == "dies" {
			onDies++
		}
	}

	relays["dies"].closed = true
	relays["drains"].closed = true
	if moved := c.Step(); moved != onDies || onDies == 0 {
		t.Fatalf("one step moved %d leaves, want the %d on the closed relay", moved, onDies)
	}
	for step := 0; step < 4; step++ {
		if st, _ := c.StateOf("dies"); st != StateDead || deaths() != 1 {
			t.Fatalf("step %d: closed relay %v after %d deaths, want dead after 1", step, st, deaths())
		}
		if st, _ := c.StateOf("drains"); st != StateDraining {
			t.Fatalf("step %d: closed draining relay is %v, want draining", step, st)
		}
		for i := 0; i < 6; i++ {
			if id, _ := c.RouteOf(i); id != "lives" {
				t.Fatalf("step %d: leaf %d on %s, want the survivor", step, i, id)
			}
		}
		if moved := c.Step(); moved != 0 {
			t.Fatalf("step %d moved %d leaves, want 0", step, moved)
		}
	}

	// A stalled member: suspect once, then for as many sweeps as its rank
	// stays put, and never assigned a leaf meanwhile.
	stalled := &fakeRelay{rank: 3}
	if err := c.Add("stalled", "addr-stalled", stalled.probe, 8); err != nil {
		t.Fatal(err)
	}
	c.Step()
	clock.advance(testStall + time.Millisecond)
	for i := 0; i < 4; i++ {
		c.Step()
		if st, _ := c.StateOf("stalled"); st != StateSuspect {
			t.Fatalf("sweep %d: stalled relay is %v, want suspect", i, st)
		}
		if _, id, err := c.assign(10 + i); err != nil || id != "lives" {
			t.Fatalf("sweep %d: leaf assigned to %q (%v), want lives", i, id, err)
		}
	}
	stalled.rank++
	c.Step()
	if st, _ := c.StateOf("stalled"); st != StateActive {
		t.Fatalf("relay whose rank grew is %v, want active", st)
	}
	if _, id, err := c.assign(20); err != nil || id != "stalled" {
		t.Fatalf("leaf assigned to %q (%v), want the least-loaded stalled-then-active relay", id, err)
	}
}

// targetOf returns where leaf's route points and how many times it has moved.
func targetOf(t *testing.T, c *Control, leaf int) (string, int64) {
	t.Helper()
	c.mu.Lock()
	rt := c.routes[leaf]
	c.mu.Unlock()
	if rt == nil {
		t.Fatalf("leaf %d has no route", leaf)
	}
	return c.target(rt)
}

func TestControlBalancesAndReroutes(t *testing.T) {
	c, _, _ := activeControl(t, "r1", "r2")

	byRelay := map[string]int{}
	for i := 0; i < 4; i++ {
		_, id, err := c.assign(i)
		if err != nil {
			t.Fatal(err)
		}
		byRelay[id]++
		want, _ := c.Addr(id)
		if addr, _ := targetOf(t, c, i); addr != want {
			t.Fatalf("leaf %d dials %q, relay %s serves at %q", i, addr, id, want)
		}
	}
	if byRelay["r1"] != 2 || byRelay["r2"] != 2 {
		t.Fatalf("assignment not balanced: %v", byRelay)
	}

	// Reroute leaf 0 off its relay: it must land on the other one.
	from, _ := c.RouteOf(0)
	changed, err := c.Reroute(0, from)
	if err != nil || !changed {
		t.Fatalf("reroute: changed=%v err=%v", changed, err)
	}
	to, _ := c.RouteOf(0)
	if to == from {
		t.Fatal("reroute kept the excluded relay")
	}
	// One move so far: the assignment is not one.
	if addr, moves := targetOf(t, c, 0); moves != 1 || addr != "addr-"+to {
		t.Fatalf("after the reroute: target %q, moves %d; want addr-%s, 1", addr, moves, to)
	}

	// With every alternative excluded the reroute reports ErrNoRelays.
	c.mu.Lock()
	c.members[from].state = StateDead
	c.mu.Unlock()
	if _, err := c.Reroute(0, to); !errors.Is(err, ErrNoRelays) {
		t.Fatalf("reroute with no alternative: %v, want ErrNoRelays", err)
	}
	if _, err := c.Reroute(99, "r1"); err == nil {
		t.Fatal("reroute of unassigned leaf accepted")
	}

	// Released leaves drop out of the load accounting.
	c.Release(0)
	if _, ok := c.RouteOf(0); ok {
		t.Fatal("released leaf still routed")
	}
}

// TestControlStaleRerouteMovesNothing: a reroute decided from routes read
// before a drain moved the leaf must not move it a second time.
func TestControlStaleRerouteMovesNothing(t *testing.T) {
	c, _, _ := activeControl(t, "a", "b", "c")
	if _, _, err := c.assign(0); err != nil {
		t.Fatal(err)
	}
	stale := c.Routes()
	if !c.SetDraining(stale[0]) {
		t.Fatalf("relay %s not eligible to drain", stale[0])
	}
	if _, moves := targetOf(t, c, 0); moves != 1 {
		t.Fatalf("the drain moved the leaf %d times, want 1", moves)
	}
	changed, err := c.Reroute(0, stale[0])
	if _, moves := targetOf(t, c, 0); changed || err != nil || moves != 1 {
		t.Fatalf("stale reroute: changed %v, err %v, moves %d; want false, nil, 1", changed, err, moves)
	}
}

// TestControlFollowsRejoinedRelay: a drain moves the relay's leaves onto the
// survivor; a leaf that had no survivor to go to stays, and follows the relay
// to the new address it rejoins at — those routed elsewhere are not touched.
func TestControlFollowsRejoinedRelay(t *testing.T) {
	c, _, _ := activeControl(t, "r1", "r2")
	for i := 0; i < 4; i++ {
		if _, _, err := c.assign(i); err != nil {
			t.Fatal(err)
		}
	}
	// The survivor dies: nothing is left to move r1's leaves to.
	c.mu.Lock()
	c.members["r2"].state = StateDead
	c.mu.Unlock()
	onR1 := map[int]bool{}
	for i := 0; i < 4; i++ {
		if id, _ := c.RouteOf(i); id == "r1" {
			onR1[i] = true
		}
	}
	if !c.SetDraining("r1") {
		t.Fatal("r1 not eligible to drain")
	}
	if !c.Rejoin("r1", "addr-r1-restarted") {
		t.Fatal("r1 could not rejoin")
	}
	for i := 0; i < 4; i++ {
		want, wantMoves := "addr-r2", int64(0)
		if onR1[i] {
			want, wantMoves = "addr-r1-restarted", 1
		}
		if addr, moves := targetOf(t, c, i); addr != want || moves != wantMoves {
			t.Fatalf("leaf %d dials %q after %d moves, want %q after %d", i, addr, moves, want, wantMoves)
		}
	}

	// With a survivor, the drain itself moves the leaves and the rejoin
	// leaves them where they went.
	c, _, _ = activeControl(t, "r1", "r2")
	for i := 0; i < 4; i++ {
		if _, _, err := c.assign(i); err != nil {
			t.Fatal(err)
		}
	}
	c.SetDraining("r1")
	c.Rejoin("r1", "addr-r1-restarted")
	for i := 0; i < 4; i++ {
		if id, _ := c.RouteOf(i); id != "r2" {
			t.Fatalf("leaf %d routed to %s after the drain, want r2", i, id)
		}
	}
}

// TestControlConcurrentRerouteAndDial dials one leaf's route from many
// goroutines while the control plane flips it between two live relays and a
// remediation loop steps beside them: every dial connects to one of the two
// whole addresses, the move count equals the reroutes that reported a change
// (both relays stay active, so remediation moves nothing), and once the
// route is released a dial fails instead of connecting. Run under -race this
// also proves a reroute never races a dial's read of the address.
func TestControlConcurrentRerouteAndDial(t *testing.T) {
	accepting := func() net.Listener {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		go func() {
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				conn.Close()
			}
		}()
		return l
	}
	la, lb := accepting(), accepting()
	defer la.Close()
	defer lb.Close()
	c := NewControl(testStall)
	newFakeClock(c)
	addrs := map[string]bool{}
	warm := &fakeRelay{rank: 8} // only read, by every Step
	for id, l := range map[string]net.Listener{"r1": la, "r2": lb} {
		if err := c.Add(id, l.Addr().String(), warm.probe, 8); err != nil {
			t.Fatal(err)
		}
		addrs[l.Addr().String()] = true
	}
	rt, _, err := c.assign(0)
	if err != nil {
		t.Fatal(err)
	}
	dial := c.dial(rt)

	const dialers, dialsPer, reroutes = 8, 25, 200
	var (
		wg      sync.WaitGroup
		changes atomic.Int64
	)
	for i := 0; i < dialers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < dialsPer; j++ {
				conn, err := dial(context.Background())
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				if remote := conn.RemoteAddr().String(); !addrs[remote] {
					t.Errorf("dialed %q, which is neither relay", remote)
				}
				conn.Close()
			}
		}()
	}
	stepping := make(chan struct{})
	var steps sync.WaitGroup
	steps.Add(1)
	go func() {
		defer steps.Done()
		for {
			select {
			case <-stepping:
				return
			default:
				if n := c.Step(); n != 0 {
					t.Errorf("step moved %d leaves between two active relays", n)
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < reroutes; j++ {
			from, _ := c.RouteOf(0)
			if changed, err := c.Reroute(0, from); err != nil {
				t.Errorf("reroute: %v", err)
				return
			} else if changed {
				changes.Add(1)
			}
		}
	}()
	wg.Wait()
	close(stepping)
	steps.Wait()

	if _, moves := targetOf(t, c, 0); moves != changes.Load() || moves != reroutes {
		t.Fatalf("moves = %d, reroutes that changed the route = %d, want both %d", moves, changes.Load(), reroutes)
	}
	c.Release(0)
	if conn, err := dial(context.Background()); err == nil {
		conn.Close()
		t.Fatal("a released route still dials")
	}
}

func TestControlStepMovesLeavesOffDeadRelay(t *testing.T) {
	c, _, relays := activeControl(t, "r1", "r2")
	_, relayID, err := c.assign(0)
	if err != nil {
		t.Fatal(err)
	}

	// The assigned relay closes; the other stays open.
	other := "r1"
	if relayID == "r1" {
		other = "r2"
	}
	relays[relayID].closed = true
	if moved := c.Step(); moved != 1 {
		t.Fatalf("step moved %d leaves, want 1", moved)
	}
	if got, _ := c.RouteOf(0); got != other {
		t.Fatalf("leaf routed to %q, want %q", got, other)
	}
	want, _ := c.Addr(other)
	if addr, _ := targetOf(t, c, 0); addr != want {
		t.Fatalf("leaf dials %q, want %q", addr, want)
	}
	if c.Remediations() != 1 {
		t.Fatalf("remediations = %d, want 1", c.Remediations())
	}
	// A healthy steady state moves nothing.
	if moved := c.Step(); moved != 0 {
		t.Fatalf("steady-state step moved %d leaves", moved)
	}
}

// TestControlStepLeavesLiveRelaysAlone: a leaf routed to one of two open
// relays, both still filling, is where it may be — remediation must not
// bounce it between them.
func TestControlStepLeavesLiveRelaysAlone(t *testing.T) {
	c := NewControl(testStall)
	newFakeClock(c)
	for _, id := range []string{"r1", "r2"} {
		filling := &fakeRelay{rank: 2}
		if err := c.Add(id, "addr-"+id, filling.probe, 8); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.assign(0); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i := 0; i < 4; i++ {
		moved += c.Step()
	}
	if _, moves := targetOf(t, c, 0); moved != 0 || moves != 0 || c.Remediations() != 0 {
		t.Fatalf("steps moved %d (route moves %d, remediations %d) between live relays, want 0",
			moved, moves, c.Remediations())
	}
}

// TestTopologyDefaults: zero durations get the fast-sweep defaults.
func TestTopologyDefaults(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name  string
		in    Topology
		sw    time.Duration
		stall time.Duration
	}{
		{"zero", Topology{}, 20 * ms, 120 * ms},
		{"stall only", Topology{StallAfter: time.Second}, 20 * ms, time.Second},
		{"explicit", Topology{Sweep: 2 * ms, StallAfter: 9 * ms}, 2 * ms, 9 * ms},
	} {
		got := tc.in.withDefaults()
		if got.Sweep != tc.sw || got.StallAfter != tc.stall {
			t.Errorf("%s: sweep %v, stall %v; want %v, %v", tc.name, got.Sweep, got.StallAfter, tc.sw, tc.stall)
		}
	}
}
