// Package mesh assembles the repo's coding, serving, fetching, chaos, and
// observability layers into a multi-node recoding relay mesh: an origin
// server feeds a tier of relays that recode upstream blocks (never
// decoding) and re-serve them to leaf fetchers, under one control plane —
// membership, health read off each relay's rank and open flag, leaf→relay
// routes, and remediation that moves leaves off relays a leaf may no longer
// use. The whole mesh runs in-process over loopback: the relay property being
// exercised (recombinations of recombinations still decode, paper Sec. 2)
// is end-to-end, not placement-dependent.
package mesh

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"extremenc/internal/netio"
	"extremenc/internal/obs"
)

// State is a member's health state as judged by the control plane.
type State int

const (
	// StateActive: open and gaining rank, or done gaining it. A member is
	// Active from Add and from Rejoin.
	StateActive State = iota
	// StateSuspect: open, but its rank has stalled below full; no new leaves
	// are assigned, existing leaves are moved by remediation. It is Active
	// again once its rank grows.
	StateSuspect
	// StateDead: closed. Terminal — a dead member never returns to the
	// rotation.
	StateDead
	// StateDraining: deliberately leaving the rotation for a graceful
	// restart — its leaves have been moved and the relay answers new
	// handshakes BUSY while in-flight sessions run to completion. Unlike
	// dead, draining is temporary: Rejoin returns the member to the rotation.
	StateDraining
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateDraining:
		return "draining"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// ErrNoRelays reports an assignment request with no usable relay.
var ErrNoRelays = errors.New("mesh: no usable relay in the pool")

// errReleased reports a dial through the route of a leaf whose fetch has
// finished.
var errReleased = errors.New("mesh: dial on a released route")

// member is one relay's control-plane record.
type member struct {
	id   string
	addr string

	// probe reads the relay's total rank and whether it is still open;
	// fullRank is the rank at which the relay is warm (holds the whole
	// object) and further progress is no longer expected.
	probe    func() (rank int, open bool)
	fullRank int

	state          State
	lastRank       int
	lastRankChange time.Time
}

// MemberView is a point-in-time copy of one member for snapshots.
type MemberView struct {
	ID    string `json:"id"`
	Addr  string `json:"addr"`
	State string `json:"state"`
	Rank  int    `json:"rank"`
	Full  int    `json:"full_rank"`
}

// route is one leaf's current assignment: the relay it is routed to, the
// address its dials connect to, and how many times it has been moved since
// its assignment.
type route struct {
	relayID  string
	addr     string
	moves    int64
	released bool
}

// point re-points rt at relay id serving at addr, counting a changed address
// as a move.
func (rt *route) point(id, addr string) {
	if addr != rt.addr {
		rt.moves++
	}
	rt.relayID, rt.addr = id, addr
}

// Control is the mesh control plane: the relays, their health, and the
// route of every live leaf, all under one mutex. Where a leaf may be is one
// rule, usable: assignment, Reroute, a drain and remediation all go through
// it. Moving a leaf changes the address its dial function connects to, and
// the leaf's resilient fetcher does the rest: its next reconnect lands on the
// new relay carrying all accumulated rank. Servers never name a relay: a
// draining one answers BUSY.
//
// Health is read off each relay by its probe, which takes no lock: a closed
// relay is dead, and an open one whose rank stops growing before it is full is
// stuck (an upstream partition, a wedged fetch) and is marked suspect so no
// new leaves land on it, without being buried.
type Control struct {
	stallAfter time.Duration
	now        func() time.Time

	mu      sync.Mutex
	members map[string]*member
	routes  map[int]*route

	deaths       obs.Counter
	assigns      obs.Counter
	reroutes     obs.Counter
	remediations obs.Counter
	sweeps       obs.Counter
}

// NewControl returns an empty control plane that marks a member suspect once
// its rank has stalled below full for stallAfter.
func NewControl(stallAfter time.Duration) *Control {
	return &Control{
		stallAfter: stallAfter, now: time.Now,
		members: make(map[string]*member), routes: make(map[int]*route),
	}
}

// Instrument registers the control plane's counters and the live-relay gauge
// into reg under the "mesh" prefix.
func (c *Control) Instrument(reg *obs.Registry) error {
	for _, s := range []struct {
		name, help string
		ctr        *obs.Counter
	}{
		{"mesh.relay_deaths_total", "closed relays declared dead by a health sweep", &c.deaths},
		{"mesh.assignments_total", "leaf-to-relay assignments made", &c.assigns},
		{"mesh.reroutes_total", "leaves re-pointed at a different relay", &c.reroutes},
		{"mesh.remediations_total", "leaves moved off unhealthy relays", &c.remediations},
		{"mesh.health_sweeps_total", "health sweeps executed by the remediation loop", &c.sweeps},
	} {
		if err := reg.RegisterCounter(s.name, s.help, s.ctr); err != nil {
			return err
		}
	}
	return reg.RegisterFunc("mesh.relays_active",
		"relays currently in the active rotation", func() float64 {
			return float64(len(c.InState(StateActive)))
		})
}

// Add registers a relay in StateActive. probe reports the relay's total rank
// and whether it is still open, and takes no lock; fullRank is the rank at
// which the relay is warm.
func (c *Control) Add(id, addr string, probe func() (rank int, open bool), fullRank int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.members[id]; dup {
		return fmt.Errorf("mesh: relay %q already registered", id)
	}
	c.members[id] = &member{
		id: id, addr: addr, probe: probe, fullRank: fullRank,
		state: StateActive, lastRankChange: c.now(),
	}
	return nil
}

// SetDraining takes member id out of the rotation for a graceful restart and
// moves every leaf routed to it onto a usable survivor at once; a leaf with
// no survivor to go to stays, and Rejoin re-points it. It reports whether the
// member was eligible (registered and not dead).
func (c *Control) SetDraining(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[id]
	if m == nil || m.state == StateDead {
		return false
	}
	m.state = StateDraining
	for _, rt := range c.routes {
		if rt.relayID == id {
			_ = c.move(rt) // with no survivor the leaf stays; Rejoin re-points it
		}
	}
	return true
}

// Rejoin returns a draining member to the rotation at a (possibly new)
// serving address, and re-points the leaves still routed to it there. It
// re-enters as active, with its rank-progress clock reset so the restart
// window is not misread as a stall. It reports whether the member was
// eligible (registered and not dead).
func (c *Control) Rejoin(id, addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[id]
	if m == nil || m.state == StateDead {
		return false
	}
	m.addr = addr
	m.state = StateActive
	m.lastRankChange = c.now()
	for _, rt := range c.routes {
		if rt.relayID == id {
			rt.point(id, addr)
		}
	}
	return true
}

// Addr returns the serving address of member id.
func (c *Control) Addr(id string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[id]
	if m == nil {
		return "", false
	}
	return m.addr, true
}

// StateOf returns the current state of member id.
func (c *Control) StateOf(id string) (State, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.members[id]
	if m == nil {
		return StateDead, false
	}
	return m.state, true
}

// InState returns the IDs of every member currently in state s, sorted for
// deterministic iteration.
func (c *Control) InState(s State) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ids []string
	for id, m := range c.members {
		if m.state == s {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Usable returns the members a leaf may be pointed at, exclude never among
// them (see usable).
func (c *Control) Usable(exclude string) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.usable(exclude)
}

// usable is the one rule for where a leaf may be: the active members, sorted
// by ID, exclude never among them. Callers hold c.mu.
func (c *Control) usable(exclude string) []string {
	var ids []string
	for id, m := range c.members {
		if m.state == StateActive && id != exclude {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Snapshot copies every member, sorted by ID.
func (c *Control) Snapshot() []MemberView {
	c.mu.Lock()
	defer c.mu.Unlock()
	views := make([]MemberView, 0, len(c.members))
	for _, m := range c.members {
		rank, _ := m.probe()
		views = append(views, MemberView{
			ID: m.id, Addr: m.addr, State: m.state.String(),
			Rank: rank, Full: m.fullRank,
		})
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	return views
}

// sweep probes every member once and applies state transitions: a closed
// member is dead, an open one active while its rank grows and suspect once it
// has stalled below full for stallAfter. Callers hold c.mu.
func (c *Control) sweep() {
	now := c.now()
	for _, m := range c.members {
		// Dead is terminal; draining is a deliberate absence the drain's own
		// deadline bounds — judging either would only misfire (a drained
		// member must not be buried mid-restart, Rejoin resets its clock).
		if m.state == StateDead || m.state == StateDraining {
			continue
		}
		switch rank, open := m.probe(); {
		case !open:
			m.state = StateDead
			c.deaths.Inc()
		case rank > m.lastRank:
			m.state, m.lastRank, m.lastRankChange = StateActive, rank, now
		case rank < m.fullRank && now.Sub(m.lastRankChange) > c.stallAfter:
			// Open but stuck below full rank: quarantine, don't bury.
			m.state = StateSuspect
		}
	}
}

// Step runs one remediation pass: a health sweep, then every leaf whose
// relay is no longer usable is moved to one that is. It returns how many
// leaves it moved. A leaf with nowhere to go keeps its route for the next
// pass to retry.
func (c *Control) Step() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweeps.Inc()
	c.sweep()
	usable := c.usable("")
	moved := 0
	for _, rt := range c.routes {
		if !slices.Contains(usable, rt.relayID) && c.move(rt) == nil {
			c.remediations.Inc()
			moved++
		}
	}
	return moved
}

// Run executes Step every period until ctx ends. The leaf itself never
// learns a pass moved it — its fetcher was already reconnect-looping against
// the dead address with backoff, and the re-pointed route simply makes the
// next attempt land somewhere alive, rank intact.
func (c *Control) Run(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.Step()
		}
	}
}

// Remediations returns how many leaves remediation has moved.
func (c *Control) Remediations() int64 { return c.remediations.Load() }

// assign picks a relay for leafID and records the route, returning it and
// the chosen relay's ID. The leaf dials through c.dial(route).
func (c *Control) assign(leafID int) (*route, string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, addr, err := c.pick("")
	if err != nil {
		return nil, "", err
	}
	rt := &route{relayID: id, addr: addr}
	c.routes[leafID] = rt
	c.assigns.Inc()
	return rt, id, nil
}

// dial returns rt's dial function. The address is read under c.mu, so a move
// racing a dial lands entirely before it (the dial connects to the new
// address) or entirely after; once rt is released every dial fails.
func (c *Control) dial(rt *route) netio.DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		c.mu.Lock()
		addr, released := rt.addr, rt.released
		c.mu.Unlock()
		if released {
			return nil, errReleased
		}
		return tcpDial(addr)(ctx)
	}
}

// target returns where rt points and how many times it has moved; it stays
// readable after the route is released.
func (c *Control) target(rt *route) (string, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return rt.addr, rt.moves
}

// Reroute moves leafID off relay from onto another usable relay. It moves
// the leaf only if it is still routed to from — a caller acting on what it
// saw earlier cannot move a leaf twice — and reports whether it moved it;
// with no alternative available the route is kept and ErrNoRelays returned.
func (c *Control) Reroute(leafID int, from string) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rt := c.routes[leafID]
	if rt == nil {
		return false, errors.New("mesh: reroute of unassigned leaf")
	}
	if rt.relayID != from {
		return false, nil
	}
	if err := c.move(rt); err != nil {
		return false, err
	}
	return true, nil
}

// move re-points rt at the least-loaded usable relay other than its own.
// Callers hold c.mu.
func (c *Control) move(rt *route) error {
	id, addr, err := c.pick(rt.relayID)
	if err != nil {
		return err
	}
	rt.point(id, addr)
	c.reroutes.Inc()
	return nil
}

// Release drops leafID from the routing table — called when its fetch
// finishes, so load counts and remediation only consider live leaves — and
// fails every later dial through its route.
func (c *Control) Release(leafID int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if rt := c.routes[leafID]; rt != nil {
		rt.released = true
		delete(c.routes, leafID)
	}
}

// RouteOf returns the relay currently serving leafID.
func (c *Control) RouteOf(leafID int) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rt := c.routes[leafID]
	if rt == nil {
		return "", false
	}
	return rt.relayID, true
}

// Routes returns a copy of the leaf→relay assignment map.
func (c *Control) Routes() map[int]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]string, len(c.routes))
	for leaf, rt := range c.routes {
		out[leaf] = rt.relayID
	}
	return out
}

// pick chooses the least-loaded usable relay, excluding the named one.
// Callers hold c.mu.
func (c *Control) pick(exclude string) (id, addr string, err error) {
	usable := c.usable(exclude)
	if len(usable) == 0 {
		return "", "", ErrNoRelays
	}
	load := make(map[string]int, len(usable))
	for _, rt := range c.routes {
		load[rt.relayID]++
	}
	sort.SliceStable(usable, func(i, j int) bool { return load[usable[i]] < load[usable[j]] })
	return usable[0], c.members[usable[0]].addr, nil
}
