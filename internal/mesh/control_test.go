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

// testHealth is the failure-detector setting of the hand-cranked tests.
var testHealth = HealthConfig{SuspectAfter: 100 * time.Millisecond, DeadAfter: 300 * time.Millisecond}

// activeControl returns a control plane on a fake clock with the given
// relays registered (at addr-<id>, no rank probe, full rank 8) and active.
func activeControl(t *testing.T, ids ...string) (*Control, *fakeClock) {
	t.Helper()
	c := NewControl(testHealth)
	clock := newFakeClock(c)
	for _, id := range ids {
		if err := c.Add(id, "addr-"+id, nil, 8); err != nil {
			t.Fatal(err)
		}
		c.Heartbeat(id)
	}
	return c, clock
}

func TestControlLifecycle(t *testing.T) {
	c := NewControl(testHealth)
	if err := c.Add("r1", "addr1", nil, 8); err != nil {
		t.Fatal(err)
	}
	if err := c.Add("r1", "addr1", nil, 8); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if s, _ := c.StateOf("r1"); s != StateJoining {
		t.Fatalf("fresh member state %v, want joining", s)
	}
	c.Heartbeat("r1")
	if s, _ := c.StateOf("r1"); s != StateActive {
		t.Fatalf("heartbeated member state %v, want active", s)
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

// TestControlUsable: the one rule for where a leaf may be pointed — active
// members, else joining ones with the warm first, never the excluded one.
func TestControlUsable(t *testing.T) {
	c := NewControl(testHealth)
	rank := map[string]int{"a": 0, "b": 8, "c": 8, "d": 8}
	for _, id := range []string{"a", "b", "c", "d"} {
		id := id
		if err := c.Add(id, id+":1", func() int { return rank[id] }, 8); err != nil {
			t.Fatal(err)
		}
	}
	c.SetDraining("d")
	if got := c.Usable("c"); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("nothing active: usable = %v, want the warm joiner before the cold one, c excluded, d draining", got)
	}
	c.Heartbeat("a")
	if got := c.Usable(""); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("one active: usable = %v, want only it", got)
	}
	if got := c.Usable("a"); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("the only active member excluded: usable = %v, want the joiners", got)
	}
}

func TestControlSweepTransitions(t *testing.T) {
	c := NewControl(testHealth)
	clock := newFakeClock(c)
	rank := 0
	if err := c.Add("r", "a", func() int { return rank }, 4); err != nil {
		t.Fatal(err)
	}
	c.Heartbeat("r")

	// Overdue heartbeat: active → suspect, then a late beat restores it.
	clock.advance(150 * time.Millisecond)
	c.Step()
	if s, _ := c.StateOf("r"); s != StateSuspect {
		t.Fatalf("overdue member state %v, want suspect", s)
	}
	c.Heartbeat("r")
	if s, _ := c.StateOf("r"); s != StateActive {
		t.Fatalf("late beat left state %v, want active", s)
	}

	// Rank stall: beats keep flowing but rank is stuck below full — the
	// member is quarantined as suspect, never buried.
	rank = 2
	c.Step() // record the rank-2 progress point
	for i := 0; i < 10; i++ {
		clock.advance(50 * time.Millisecond)
		c.Heartbeat("r")
		c.Step()
	}
	if s, _ := c.StateOf("r"); s != StateSuspect {
		t.Fatalf("rank-stalled member state %v, want suspect", s)
	}
	if c.deaths.Load() != 0 {
		t.Fatal("rank stall counted as a death")
	}

	// Progress resumes: the next beat reactivates, and a warm relay
	// (rank == full) never re-trips the stall detector.
	rank = 4
	c.Heartbeat("r")
	c.Step()
	if s, _ := c.StateOf("r"); s != StateActive {
		t.Fatalf("recovered member state %v, want active", s)
	}
	for i := 0; i < 10; i++ {
		clock.advance(50 * time.Millisecond)
		c.Heartbeat("r")
		c.Step()
	}
	if s, _ := c.StateOf("r"); s != StateActive {
		t.Fatalf("warm member state %v, want active", s)
	}

	// Beats stop entirely: suspect, then dead, and death is terminal.
	clock.advance(350 * time.Millisecond)
	c.Step()
	if s, _ := c.StateOf("r"); s != StateDead {
		t.Fatalf("silent member state %v, want dead", s)
	}
	if c.deaths.Load() != 1 {
		t.Fatalf("deaths = %d, want 1", c.deaths.Load())
	}
	c.Heartbeat("r")
	if s, _ := c.StateOf("r"); s != StateDead {
		t.Fatal("a beat resurrected a dead member")
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
	c, _ := activeControl(t, "r1", "r2")

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
	c, _ := activeControl(t, "a", "b", "c")
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
	c, _ := activeControl(t, "r1", "r2")
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
	c, _ = activeControl(t, "r1", "r2")
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
	c := NewControl(testHealth)
	newFakeClock(c)
	addrs := map[string]bool{}
	for id, l := range map[string]net.Listener{"r1": la, "r2": lb} {
		if err := c.Add(id, l.Addr().String(), nil, 8); err != nil {
			t.Fatal(err)
		}
		c.Heartbeat(id)
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
	c, clock := activeControl(t, "r1", "r2")
	_, relayID, err := c.assign(0)
	if err != nil {
		t.Fatal(err)
	}

	// Only the other relay keeps beating; the assigned one goes silent.
	other := "r1"
	if relayID == "r1" {
		other = "r2"
	}
	clock.advance(150 * time.Millisecond)
	c.Heartbeat(other)
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
	c.Heartbeat(other)
	if moved := c.Step(); moved != 0 {
		t.Fatalf("steady-state step moved %d leaves", moved)
	}
}

// TestControlStepLeavesJoiningRelaysAlone: before any heartbeat every relay
// is joining and a leaf routed to one is where it may be — remediation must
// not bounce it between them.
func TestControlStepLeavesJoiningRelaysAlone(t *testing.T) {
	c := NewControl(testHealth)
	newFakeClock(c)
	for _, id := range []string{"r1", "r2"} {
		if err := c.Add(id, "addr-"+id, nil, 8); err != nil {
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
		t.Fatalf("steps moved %d (route moves %d, remediations %d) between joining relays, want 0",
			moved, moves, c.Remediations())
	}
}

// TestTopologyDefaults: zero durations get the fast-sweep defaults, and a
// DeadAfter that does not exceed SuspectAfter becomes twice SuspectAfter.
func TestTopologyDefaults(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name string
		in   Topology
		hb   time.Duration
		sw   time.Duration
		h    HealthConfig
	}{
		{"zero", Topology{}, 15 * ms, 20 * ms, HealthConfig{60 * ms, 120 * ms}},
		{"heartbeat scales health", Topology{Heartbeat: 100 * ms}, 100 * ms, 20 * ms, HealthConfig{400 * ms, 800 * ms}},
		{"suspect only, above the dead default", Topology{Health: HealthConfig{SuspectAfter: time.Second}}, 15 * ms, 20 * ms, HealthConfig{time.Second, 2 * time.Second}},
		{"suspect only, below the dead default", Topology{Health: HealthConfig{SuspectAfter: 100 * ms}}, 15 * ms, 20 * ms, HealthConfig{100 * ms, 120 * ms}},
		{"dead equal to suspect", Topology{Health: HealthConfig{SuspectAfter: 50 * ms, DeadAfter: 50 * ms}}, 15 * ms, 20 * ms, HealthConfig{50 * ms, 100 * ms}},
		{"explicit", Topology{Heartbeat: ms, Sweep: 2 * ms, Health: HealthConfig{3 * ms, 9 * ms}}, ms, 2 * ms, HealthConfig{3 * ms, 9 * ms}},
	} {
		got := tc.in.withDefaults()
		if got.Heartbeat != tc.hb || got.Sweep != tc.sw || got.Health != tc.h {
			t.Errorf("%s: heartbeat %v, sweep %v, health %+v; want %v, %v, %+v",
				tc.name, got.Heartbeat, got.Sweep, got.Health, tc.hb, tc.sw, tc.h)
		}
	}
}
