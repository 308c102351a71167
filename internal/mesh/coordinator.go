package mesh

import (
	"errors"
	"sort"
	"sync"

	"extremenc/internal/netio"
	"extremenc/internal/obs"
)

// ErrNoRelays reports an assignment request with no usable relay in the
// pool.
var ErrNoRelays = errors.New("mesh: no usable relay in the pool")

// route is one leaf's current assignment.
type route struct {
	relayID string
	rd      *netio.Redirector
}

// Coordinator assigns leaves to relays and re-points them when health says
// their relay is gone. Assignment is least-loaded-first over active members
// (joining members are used only when nothing is active yet — mesh
// startup); re-routing hands the leaf's Redirector a fresh dial target, and
// the leaf's resilient fetcher does the rest — its next reconnect lands on
// the new relay carrying all accumulated rank.
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

// Assign picks a relay for leafID, points rd at it, and records the route.
// It returns the chosen relay's ID.
func (c *Coordinator) Assign(leafID int, rd *netio.Redirector) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, addr, err := c.pick("")
	if err != nil {
		return "", err
	}
	rd.SetTarget(addr)
	c.routes[leafID] = &route{relayID: id, rd: rd}
	c.assigns.Inc()
	return id, nil
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
	rt.relayID = id
	rt.rd.SetTarget(addr)
	c.reroutes.Inc()
	return true, nil
}

// Moved re-points every leaf routed to relay id at addr, the relay's serving
// address after a restart. A leaf whose session ended just as the drain
// finished redials the old, closed address; remediation moves leaves only off
// relays that are not active, so once the relay is active again nothing else
// would.
func (c *Coordinator) Moved(id, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rt := range c.routes {
		if rt.relayID == id {
			rt.rd.SetTarget(addr)
		}
	}
}

// Release drops leafID from the routing table — called when its fetch
// finishes, so load counts and remediation only consider live leaves.
func (c *Coordinator) Release(leafID int) {
	c.mu.Lock()
	delete(c.routes, leafID)
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
