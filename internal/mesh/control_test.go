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

// fakeClock gives the pool a hand-cranked time source so health thresholds
// are tested deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock(p *Pool) *fakeClock {
	c := &fakeClock{t: time.Unix(1000, 0)}
	p.now = c.now
	return c
}

func TestPoolLifecycle(t *testing.T) {
	p := NewPool()
	if err := p.Add("r1", "addr1", nil, 8); err != nil {
		t.Fatal(err)
	}
	if err := p.Add("r1", "addr1", nil, 8); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if s, _ := p.StateOf("r1"); s != StateJoining {
		t.Fatalf("fresh member state %v, want joining", s)
	}
	p.Heartbeat("r1")
	if s, _ := p.StateOf("r1"); s != StateActive {
		t.Fatalf("heartbeated member state %v, want active", s)
	}
	if got := p.InState(StateActive); len(got) != 1 || got[0] != "r1" {
		t.Fatalf("InState(active) = %v", got)
	}
	if addr, ok := p.Addr("r1"); !ok || addr != "addr1" {
		t.Fatalf("Addr = %q, %v", addr, ok)
	}
	if _, ok := p.StateOf("ghost"); ok {
		t.Fatal("unknown member reported present")
	}
}

// TestPoolUsable: the one rule for where a leaf may be pointed — active
// members, else joining ones with the warm first, never the excluded one.
func TestPoolUsable(t *testing.T) {
	p := NewPool()
	rank := map[string]int{"a": 0, "b": 8, "c": 8, "d": 8}
	for _, id := range []string{"a", "b", "c", "d"} {
		id := id
		if err := p.Add(id, id+":1", func() int { return rank[id] }, 8); err != nil {
			t.Fatal(err)
		}
	}
	p.SetDraining("d")
	if got := p.Usable("c"); !reflect.DeepEqual(got, []string{"b", "a"}) {
		t.Fatalf("nothing active: usable = %v, want the warm joiner before the cold one, c excluded, d draining", got)
	}
	p.Heartbeat("a")
	if got := p.Usable(""); !reflect.DeepEqual(got, []string{"a"}) {
		t.Fatalf("one active: usable = %v, want only it", got)
	}
	if got := p.Usable("a"); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("the only active member excluded: usable = %v, want the joiners", got)
	}
}

func TestHealthSweepTransitions(t *testing.T) {
	p := NewPool()
	clock := newFakeClock(p)
	rank := 0
	if err := p.Add("r", "a", func() int { return rank }, 4); err != nil {
		t.Fatal(err)
	}
	h := NewHealth(p, HealthConfig{SuspectAfter: 100 * time.Millisecond, DeadAfter: 300 * time.Millisecond})
	p.Heartbeat("r")

	// Overdue heartbeat: active → suspect, then a late beat restores it.
	clock.advance(150 * time.Millisecond)
	trs := h.Sweep()
	if len(trs) != 1 || trs[0].To != StateSuspect {
		t.Fatalf("sweep transitions = %+v, want one → suspect", trs)
	}
	p.Heartbeat("r")
	if s, _ := p.StateOf("r"); s != StateActive {
		t.Fatalf("late beat left state %v, want active", s)
	}

	// Rank stall: beats keep flowing but rank is stuck below full — the
	// member is quarantined as suspect, never buried.
	rank = 2
	h.Sweep() // record the rank-2 progress point
	for i := 0; i < 10; i++ {
		clock.advance(50 * time.Millisecond)
		p.Heartbeat("r")
		h.Sweep()
	}
	if s, _ := p.StateOf("r"); s != StateSuspect {
		t.Fatalf("rank-stalled member state %v, want suspect", s)
	}
	if p.deaths.Load() != 0 {
		t.Fatal("rank stall counted as a death")
	}

	// Progress resumes: the next beat reactivates, and a warm relay
	// (rank == full) never re-trips the stall detector.
	rank = 4
	p.Heartbeat("r")
	h.Sweep()
	if s, _ := p.StateOf("r"); s != StateActive {
		t.Fatalf("recovered member state %v, want active", s)
	}
	for i := 0; i < 10; i++ {
		clock.advance(50 * time.Millisecond)
		p.Heartbeat("r")
		h.Sweep()
	}
	if s, _ := p.StateOf("r"); s != StateActive {
		t.Fatalf("warm member state %v, want active", s)
	}

	// Beats stop entirely: suspect, then dead, and death is terminal.
	clock.advance(350 * time.Millisecond)
	h.Sweep()
	if s, _ := p.StateOf("r"); s != StateDead {
		t.Fatalf("silent member state %v, want dead", s)
	}
	if p.deaths.Load() != 1 {
		t.Fatalf("deaths = %d, want 1", p.deaths.Load())
	}
	p.Heartbeat("r")
	if s, _ := p.StateOf("r"); s != StateDead {
		t.Fatal("a beat resurrected a dead member")
	}
}

// targetOf returns where leaf's route points and how many times it has moved.
func targetOf(t *testing.T, c *Coordinator, leaf int) (string, int64) {
	t.Helper()
	c.mu.Lock()
	rt := c.routes[leaf]
	c.mu.Unlock()
	if rt == nil {
		t.Fatalf("leaf %d has no route", leaf)
	}
	return c.target(rt)
}

func TestCoordinatorBalancesAndReroutes(t *testing.T) {
	p := NewPool()
	for _, id := range []string{"r1", "r2"} {
		if err := p.Add(id, "addr-"+id, nil, 8); err != nil {
			t.Fatal(err)
		}
		p.Heartbeat(id)
	}
	c := NewCoordinator(p)

	byRelay := map[string]int{}
	for i := 0; i < 4; i++ {
		_, id, err := c.assign(i)
		if err != nil {
			t.Fatal(err)
		}
		byRelay[id]++
		want, _ := p.Addr(id)
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
	p.mu.Lock()
	p.members[from].state = StateDead
	p.mu.Unlock()
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

// TestCoordinatorFollowsMovedRelay: a restarted relay serves at a new address,
// and every leaf routed to it is re-pointed there — those routed elsewhere are
// not touched.
func TestCoordinatorFollowsMovedRelay(t *testing.T) {
	p := NewPool()
	for _, id := range []string{"r1", "r2"} {
		if err := p.Add(id, "addr-"+id, nil, 8); err != nil {
			t.Fatal(err)
		}
		p.Heartbeat(id)
	}
	c := NewCoordinator(p)
	for i := 0; i < 4; i++ {
		if _, _, err := c.assign(i); err != nil {
			t.Fatal(err)
		}
	}
	c.Moved("r1", "addr-r1-restarted")
	for i := 0; i < 4; i++ {
		want, wantMoves := "addr-r2", int64(0)
		if id, _ := c.RouteOf(i); id == "r1" {
			want, wantMoves = "addr-r1-restarted", 1
		}
		if addr, moves := targetOf(t, c, i); addr != want || moves != wantMoves {
			t.Fatalf("leaf %d dials %q after %d moves, want %q after %d", i, addr, moves, want, wantMoves)
		}
	}
}

// TestCoordinatorConcurrentRerouteAndDial dials one leaf's route from many
// goroutines while the coordinator flips it between two live relays: every
// dial connects to one of the two whole addresses, the move count equals the
// reroutes that reported a change, and once the route is released a dial
// fails instead of connecting. Run under -race this also proves a reroute
// never races a dial's read of the address.
func TestCoordinatorConcurrentRerouteAndDial(t *testing.T) {
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
	p := NewPool()
	addrs := map[string]bool{}
	for id, l := range map[string]net.Listener{"r1": la, "r2": lb} {
		if err := p.Add(id, l.Addr().String(), nil, 8); err != nil {
			t.Fatal(err)
		}
		p.Heartbeat(id)
		addrs[l.Addr().String()] = true
	}
	c := NewCoordinator(p)
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

	if _, moves := targetOf(t, c, 0); moves != changes.Load() || moves != reroutes {
		t.Fatalf("moves = %d, reroutes that changed the route = %d, want both %d", moves, changes.Load(), reroutes)
	}
	c.Release(0)
	if conn, err := dial(context.Background()); err == nil {
		conn.Close()
		t.Fatal("a released route still dials")
	}
}

func TestRemediatorMovesLeavesOffDeadRelay(t *testing.T) {
	p := NewPool()
	clock := newFakeClock(p)
	for _, id := range []string{"r1", "r2"} {
		if err := p.Add(id, "addr-"+id, nil, 8); err != nil {
			t.Fatal(err)
		}
		p.Heartbeat(id)
	}
	c := NewCoordinator(p)
	h := NewHealth(p, HealthConfig{SuspectAfter: 100 * time.Millisecond, DeadAfter: 300 * time.Millisecond})
	rem := NewRemediator(h, c, time.Millisecond)

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
	p.Heartbeat(other)
	if moved := rem.Step(); moved != 1 {
		t.Fatalf("step moved %d leaves, want 1", moved)
	}
	if got, _ := c.RouteOf(0); got != other {
		t.Fatalf("leaf routed to %q, want %q", got, other)
	}
	want, _ := p.Addr(other)
	if addr, _ := targetOf(t, c, 0); addr != want {
		t.Fatalf("leaf dials %q, want %q", addr, want)
	}
	if rem.Remediations() != 1 {
		t.Fatalf("remediations = %d, want 1", rem.Remediations())
	}
	// A healthy steady state moves nothing.
	p.Heartbeat(other)
	if moved := rem.Step(); moved != 0 {
		t.Fatalf("steady-state step moved %d leaves", moved)
	}
}
