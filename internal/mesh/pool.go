// Package mesh assembles the repo's coding, serving, fetching, chaos, and
// observability layers into a multi-node recoding relay mesh: an origin
// server feeds a pool of relays that recode upstream blocks (never
// decoding) and re-serve them to leaf fetchers, under a small control plane
// — pool membership, heartbeat + rank-progress health, leaf→relay
// assignment, and remediation that re-routes leaves off dead relays. The
// whole mesh runs in-process over loopback: the relay property being
// exercised (recombinations of recombinations still decode, paper Sec. 2)
// is end-to-end, not placement-dependent.
package mesh

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"extremenc/internal/obs"
)

// State is a pool member's health state as judged by the control plane.
type State int

const (
	// StateJoining: registered but no heartbeat seen yet.
	StateJoining State = iota
	// StateActive: heartbeating and making (or done with) rank progress.
	StateActive
	// StateSuspect: heartbeat overdue or rank stalled; no new leaves are
	// assigned, existing leaves are rerouted by remediation.
	StateSuspect
	// StateDead: heartbeat long overdue. Terminal — a dead member never
	// returns to the rotation.
	StateDead
	// StateDraining: deliberately leaving the rotation for a graceful
	// restart — the coordinator has moved its leaves and the relay answers new
	// handshakes BUSY while in-flight sessions run to completion. Unlike dead, draining is temporary: Rejoin
	// returns the member to the rotation. Appended after StateDead so the
	// numeric values of the original states are stable.
	StateDraining
)

func (s State) String() string {
	switch s {
	case StateJoining:
		return "joining"
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

// member is one relay's control-plane record.
type member struct {
	id   string
	addr string

	// rankFn probes the relay's summed recoder rank; fullRank is the value
	// at which the relay is warm (holds the whole object) and further
	// progress is no longer expected.
	rankFn   func() int
	fullRank int

	state          State
	lastBeat       time.Time
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

// Pool is the mesh membership registry: relays register, heartbeat, and are
// judged by the health checker. All methods are safe for concurrent use.
type Pool struct {
	mu      sync.Mutex
	members map[string]*member
	now     func() time.Time

	heartbeats obs.Counter
	deaths     obs.Counter
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{members: make(map[string]*member), now: time.Now}
}

// Instrument registers the pool's control-plane counters and the live-relay
// gauge into reg under the "mesh" prefix.
func (p *Pool) Instrument(reg *obs.Registry) error {
	if err := reg.RegisterCounter("mesh.heartbeats_total",
		"relay heartbeats received by the control plane", &p.heartbeats); err != nil {
		return err
	}
	if err := reg.RegisterCounter("mesh.relay_deaths_total",
		"relays declared dead by the health checker", &p.deaths); err != nil {
		return err
	}
	return reg.RegisterFunc("mesh.relays_active",
		"relays currently in the active rotation", func() float64 {
			return float64(len(p.InState(StateActive)))
		})
}

// Add registers a relay with the pool in StateJoining. rankFn is the health
// checker's rank-progress probe; fullRank is the rank at which the relay is
// warm.
func (p *Pool) Add(id, addr string, rankFn func() int, fullRank int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.members[id]; dup {
		return fmt.Errorf("mesh: relay %q already registered", id)
	}
	now := p.now()
	p.members[id] = &member{
		id: id, addr: addr, rankFn: rankFn, fullRank: fullRank,
		state: StateJoining, lastBeat: now, lastRankChange: now,
	}
	return nil
}

// Heartbeat records a liveness beat from id. The first beat promotes a
// joining member to active; a suspect member that beats again is also
// restored (it was slow, not gone). Beats from a dead member are ignored —
// death is terminal, remediation has already moved its leaves. A draining
// member's beats refresh its liveness but never promote it: only Rejoin ends
// a drain.
func (p *Pool) Heartbeat(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[id]
	if m == nil || m.state == StateDead {
		return
	}
	m.lastBeat = p.now()
	if m.state == StateJoining || m.state == StateSuspect {
		m.state = StateActive
	}
	p.heartbeats.Inc()
}

// SetDraining marks member id as gracefully leaving the rotation: the
// coordinator stops assigning leaves to it, and a restart (or remediation)
// moves existing leaves off it. It reports whether the member was eligible
// (registered and not dead).
func (p *Pool) SetDraining(id string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[id]
	if m == nil || m.state == StateDead {
		return false
	}
	m.state = StateDraining
	return true
}

// Rejoin returns a draining member to the rotation at a (possibly new)
// serving address. It re-enters as joining — the next heartbeat promotes it
// to active — with its liveness and rank-progress clocks reset so the
// restart window is not misread as a stall. It reports whether the member
// was eligible (registered and not dead).
func (p *Pool) Rejoin(id, addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[id]
	if m == nil || m.state == StateDead {
		return false
	}
	now := p.now()
	m.addr = addr
	m.state = StateJoining
	m.lastBeat = now
	m.lastRankChange = now
	return true
}

// Addr returns the serving address of member id.
func (p *Pool) Addr(id string) (string, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[id]
	if m == nil {
		return "", false
	}
	return m.addr, true
}

// StateOf returns the current state of member id.
func (p *Pool) StateOf(id string) (State, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	m := p.members[id]
	if m == nil {
		return StateDead, false
	}
	return m.state, true
}

// InState returns the IDs of every member currently in state s, sorted for
// deterministic iteration.
func (p *Pool) InState(s State) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ids []string
	for id, m := range p.members {
		if m.state == s {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// Usable returns the members a leaf may be pointed at, exclude never among
// them: the active ones, or, when none is active — mesh start-up, or the beat
// between a relay's registration and its first heartbeat — the joining ones,
// those already at full rank first. Each group is sorted by ID.
func (p *Pool) Usable(exclude string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var active, warm, cold []string
	for id, m := range p.members {
		if id == exclude {
			continue
		}
		switch m.state {
		case StateActive:
			active = append(active, id)
		case StateJoining:
			if m.rankFn != nil && m.rankFn() >= m.fullRank {
				warm = append(warm, id)
			} else {
				cold = append(cold, id)
			}
		}
	}
	if len(active) > 0 {
		sort.Strings(active)
		return active
	}
	sort.Strings(warm)
	sort.Strings(cold)
	return append(warm, cold...)
}

// Snapshot copies every member, sorted by ID.
func (p *Pool) Snapshot() []MemberView {
	p.mu.Lock()
	defer p.mu.Unlock()
	views := make([]MemberView, 0, len(p.members))
	for _, m := range p.members {
		rank := m.lastRank
		if m.rankFn != nil {
			rank = m.rankFn()
		}
		views = append(views, MemberView{
			ID: m.id, Addr: m.addr, State: m.state.String(),
			Rank: rank, Full: m.fullRank,
		})
	}
	sort.Slice(views, func(i, j int) bool { return views[i].ID < views[j].ID })
	return views
}
