package mesh

import (
	"context"
	"errors"
	"net"
	"sort"
	"sync"

	"extremenc/internal/netio"
	"extremenc/internal/obs"
)

// ErrNoRelays reports an assignment request with no usable relay in the
// pool.
var ErrNoRelays = errors.New("mesh: no usable relay in the pool")

// errReleased reports a dial through the route of a leaf whose fetch has
// finished.
var errReleased = errors.New("mesh: dial on a released route")

// route is one leaf's current assignment: the relay it is routed to, the
// address its dials connect to, and how many times the coordinator has moved
// it since assigning it. Every field is guarded by Coordinator.mu.
type route struct {
	relayID  string
	addr     string
	moves    int64
	released bool
}

// point re-points rt at relay id serving at addr, counting a changed address
// as a move. Callers hold Coordinator.mu.
func (rt *route) point(id, addr string) {
	if addr != rt.addr {
		rt.moves++
	}
	rt.relayID, rt.addr = id, addr
}

// Coordinator is the one thing that points a leaf at a relay. Assignment is
// least-loaded-first over active members (joining members are used only when
// nothing is active yet — mesh startup); re-routing — remediation moving a
// leaf off a failed relay, or a restart moving it off a draining one — changes
// the address the leaf's dial function connects to, and the leaf's resilient
// fetcher does the rest: its next reconnect lands on the new relay carrying
// all accumulated rank. Servers never name a relay: a draining one answers
// BUSY.
type Coordinator struct {
	pool *Pool

	mu     sync.Mutex
	routes map[int]*route

	assigns  obs.Counter
	reroutes obs.Counter
}

// NewCoordinator returns a coordinator over pool.
func NewCoordinator(pool *Pool) *Coordinator {
	return &Coordinator{pool: pool, routes: make(map[int]*route)}
}

// Instrument registers the coordinator's counters into reg under the "mesh"
// prefix.
func (c *Coordinator) Instrument(reg *obs.Registry) error {
	if err := reg.RegisterCounter("mesh.assignments_total",
		"leaf-to-relay assignments made", &c.assigns); err != nil {
		return err
	}
	return reg.RegisterCounter("mesh.reroutes_total",
		"leaves re-pointed at a different relay", &c.reroutes)
}

// assign picks a relay for leafID and records the route, returning it and
// the chosen relay's ID. The leaf dials through c.dial(route).
func (c *Coordinator) assign(leafID int) (*route, string, error) {
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
func (c *Coordinator) dial(rt *route) netio.DialFunc {
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
func (c *Coordinator) target(rt *route) (string, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return rt.addr, rt.moves
}

// Reroute re-points leafID at a usable relay other than exclude (typically
// its current, failed relay). It reports whether the route changed; with no
// alternative available the current route is kept for the next sweep to
// retry.
func (c *Coordinator) Reroute(leafID int, exclude string) (bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rt := c.routes[leafID]
	if rt == nil {
		return false, errors.New("mesh: reroute of unassigned leaf")
	}
	id, addr, err := c.pick(exclude)
	if err != nil {
		return false, err
	}
	if id == rt.relayID {
		return false, nil
	}
	rt.point(id, addr)
	c.reroutes.Inc()
	return true, nil
}

// Moved re-points every leaf routed to relay id at addr, the relay's serving
// address after a restart. A restart moves leaves off the relay before it
// drains, so the ones still routed to it are those that had no survivor to
// go to; remediation moves leaves only off relays that are not active, so
// once the relay is active again nothing else would.
func (c *Coordinator) Moved(id, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rt := range c.routes {
		if rt.relayID == id {
			rt.point(id, addr)
		}
	}
}

// Release drops leafID from the routing table — called when its fetch
// finishes, so load counts and remediation only consider live leaves — and
// fails every later dial through its route.
func (c *Coordinator) Release(leafID int) {
	c.mu.Lock()
	if rt := c.routes[leafID]; rt != nil {
		rt.released = true
		delete(c.routes, leafID)
	}
	c.mu.Unlock()
}

// RouteOf returns the relay currently serving leafID.
func (c *Coordinator) RouteOf(leafID int) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rt := c.routes[leafID]
	if rt == nil {
		return "", false
	}
	return rt.relayID, true
}

// Routes returns a copy of the leaf→relay assignment map.
func (c *Coordinator) Routes() map[int]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]string, len(c.routes))
	for leaf, rt := range c.routes {
		out[leaf] = rt.relayID
	}
	return out
}

// pick chooses the least-loaded usable relay, excluding the named one.
// Callers hold c.mu (the load count reads c.routes).
func (c *Coordinator) pick(exclude string) (id, addr string, err error) {
	usable := c.pool.Usable(exclude)
	if len(usable) == 0 {
		return "", "", ErrNoRelays
	}
	load := make(map[string]int, len(usable))
	for _, rt := range c.routes {
		load[rt.relayID]++
	}
	sort.SliceStable(usable, func(i, j int) bool { return load[usable[i]] < load[usable[j]] })
	id = usable[0]
	addr, ok := c.pool.Addr(id)
	if !ok {
		return "", "", ErrNoRelays
	}
	return id, addr, nil
}
