package mesh

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

// Topology describes a mesh run: one origin serving media, a tier of
// recoding relays fetching from it, and a tier of leaf fetchers assigned to
// relays by the control plane (Mesh.AddLeaf). Zero-valued durations get
// fast-sweep defaults sized for in-process loopback runs.
type Topology struct {
	// Media and Params define the object the origin serves.
	Media  []byte
	Params rlnc.Params

	// Relays sizes the relay tier.
	Relays int

	// OriginMode is the origin's wire mode (default ModeDense). Relays
	// recode in its field: a ModeSystematic origin's relays recombine on the
	// GF(2) XOR path and frame XNC2 downstream.
	OriginMode netio.WireMode
	// OriginMaxSessions caps concurrent origin sessions (0 = unlimited) —
	// the knob that makes a relay tier pay off: relays warm up, release
	// their origin slots, and fan out in parallel.
	OriginMaxSessions int

	// Seed drives every deterministic choice in the mesh.
	Seed int64

	// Traced threads distributed tracing through every tier: the origin
	// mints the transfer's trace ID and declares it in each handshake,
	// relays inherit it upstream and re-declare it downstream, and leaves
	// parent their absorb spans under relay pump rounds. It only takes
	// effect while the process trace recorder is enabled (trace.Enable).
	Traced bool

	// UpstreamFaults / DownstreamFaults, when non-nil, wrap the
	// relay→origin and leaf→relay connections in faultnet chaos.
	UpstreamFaults   *faultnet.Config
	DownstreamFaults *faultnet.Config

	// Sweep is the remediation period; StallAfter how long an open relay's
	// rank may stay below full without growing before it is marked suspect.
	// A closed relay is dead at the next sweep, whatever these say.
	Sweep      time.Duration
	StallAfter time.Duration

	// Registry, when non-nil, receives the full mesh observability surface:
	// origin server counters, control-plane counters, relay stage spans
	// (via the process sink), and faultnet injection totals.
	Registry *obs.Registry

	// LeafFetchOpts, when non-nil, returns mutations applied to each leaf's
	// fetcher config after the mesh has filled it in (test hooks, attempt
	// budgets). Add a session hook with netio.WithSessionHook so the mesh's
	// own keeps running.
	LeafFetchOpts func(leaf int) []netio.FetcherOption

	// RelayServerOpts, when non-nil, returns mutations applied to each
	// relay's downstream server config (queue tuning, retry-after hints). The
	// resulting config is reused for every replacement server a Restart
	// builds, so it must not bind single-use resources like a metrics
	// registry.
	RelayServerOpts func(relay int) []netio.ServerOption
}

// withDefaults fills in the fast-sweep defaults.
func (t Topology) withDefaults() Topology {
	if t.Sweep <= 0 {
		t.Sweep = 20 * time.Millisecond
	}
	if t.StallAfter <= 0 {
		t.StallAfter = 120 * time.Millisecond
	}
	return t
}

// Leaf is one downstream fetcher: the resilient fetch, dialing through the
// route the control plane owns.
type Leaf struct {
	ID int

	rt *route
	f  *netio.Fetcher

	done chan struct{}
	res  *netio.FetchResult
	err  error

	started  time.Time
	finished time.Time
}

// Done is closed when the leaf's fetch has finished (either way).
func (l *Leaf) Done() <-chan struct{} { return l.done }

// Result returns the fetch outcome; valid only after Done is closed.
func (l *Leaf) Result() (*netio.FetchResult, error) { return l.res, l.err }

// Records returns how many complete records the leaf has received so far —
// safe during the fetch.
func (l *Leaf) Records() int64 { return int64(l.f.Stats().Records) }

// Reconnects returns how many reconnects the leaf's fetch has performed.
func (l *Leaf) Reconnects() int64 { return int64(l.f.Stats().Reconnects) }

// FetchStats snapshots the leaf's fetch ledger — including the count of BUSY
// admission decisions — safe during the fetch.
func (l *Leaf) FetchStats() *netio.FetchStats { return l.f.Stats() }

// Duration returns the leaf's fetch wall-clock time; valid after Done.
func (l *Leaf) Duration() time.Duration { return l.finished.Sub(l.started) }

// Mesh is a running topology.
type Mesh struct {
	topo Topology

	origin   *netio.Server
	originLn net.Listener

	ctl *Control

	relays []*Relay

	// leavesMu guards leaves: AddLeaf appends while Snapshot may be serving
	// a metrics scrape.
	leavesMu sync.Mutex
	leaves   []*Leaf

	upCtr, downCtr *faultnet.Counters
	upSeq, downSeq atomic.Int64

	leafCompletions obs.Counter
	rankRegressions obs.Counter

	ctx    context.Context
	cancel context.CancelFunc
}

// New validates topo and builds the origin and control plane. Nothing runs
// until Start.
func New(topo Topology) (*Mesh, error) {
	topo = topo.withDefaults()
	if topo.Relays < 1 {
		return nil, errors.New("mesh: need at least one relay")
	}
	ocfg := netio.DefaultServerConfig()
	ocfg.Seed = topo.Seed
	ocfg.Mode = topo.OriginMode
	ocfg.MaxSessions = topo.OriginMaxSessions
	ocfg.Metrics = topo.Registry
	if topo.Traced {
		ocfg.TraceNode = "origin"
	}
	origin, err := netio.NewServerFromConfig(topo.Media, topo.Params, ocfg)
	if err != nil {
		return nil, err
	}

	m := &Mesh{
		topo:    topo,
		origin:  origin,
		ctl:     NewControl(topo.StallAfter),
		upCtr:   &faultnet.Counters{},
		downCtr: &faultnet.Counters{},
	}

	if reg := topo.Registry; reg != nil {
		for _, err := range []error{
			m.ctl.Instrument(reg),
			reg.RegisterFunc("mesh.records_tapped_total",
				"upstream records absorbed into relay recoders", func() float64 { return float64(m.tapped()) }),
			reg.RegisterFunc("mesh.blocks_recoded_total",
				"recoded blocks emitted by relays", func() float64 { return float64(m.emitted()) }),
			reg.RegisterCounter("mesh.leaf_completions_total",
				"leaf fetches finished", &m.leafCompletions),
			reg.RegisterCounter("mesh.rank_regressions_total",
				"leaf reconnects that lost decoder rank (must stay zero)", &m.rankRegressions),
		} {
			if err != nil {
				return nil, err
			}
		}
		if topo.UpstreamFaults != nil {
			if err := m.upCtr.Register(reg, "faultnet_up"); err != nil {
				return nil, err
			}
		}
		if topo.DownstreamFaults != nil {
			if err := m.downCtr.Register(reg, "faultnet_down"); err != nil {
				return nil, err
			}
		}
	}
	return m, nil
}

// chaosDial wraps base so every dialed connection carries a fresh-seeded
// faultnet layer accumulating into ctr.
func chaosDial(cfg faultnet.Config, ctr *faultnet.Counters, seq *atomic.Int64, base netio.DialFunc) netio.DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		c, err := base(ctx)
		if err != nil {
			return nil, err
		}
		cc := cfg
		cc.Seed = cfg.Seed + seq.Add(1)*-0x61C8864680B583EB
		return faultnet.WrapWith(c, cc, ctr), nil
	}
}

// tcpDial returns a DialFunc for a fixed loopback address.
func tcpDial(addr string) netio.DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

// Start brings the mesh up: origin serving on loopback, every relay
// fetching (through upstream chaos, if configured) and serving, and the
// remediation loop sweeping. It returns once every relay has completed its
// first upstream handshake and registered with the control plane. The mesh
// runs until ctx ends or Close is called.
func (m *Mesh) Start(ctx context.Context) error {
	m.ctx, m.cancel = context.WithCancel(ctx)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("mesh: origin listen: %w", err)
	}
	m.originLn = ln
	go m.origin.Serve(m.ctx, ln)

	fullRank := m.origin.Segments() * m.topo.Params.BlockCount
	for i := 0; i < m.topo.Relays; i++ {
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			m.Close()
			return fmt.Errorf("mesh: relay %d listen: %w", i, err)
		}
		up := tcpDial(ln.Addr().String())
		if m.topo.UpstreamFaults != nil {
			up = chaosDial(*m.topo.UpstreamFaults, m.upCtr, &m.upSeq, up)
		}
		id := fmt.Sprintf("relay-%d", i)
		var srvOpts []netio.ServerOption
		if m.topo.RelayServerOpts != nil {
			srvOpts = m.topo.RelayServerOpts(i)
		}
		relay, err := StartRelay(m.ctx, RelayConfig{
			ID:       id,
			Upstream: up,
			Listener: rln,
			Seed:     m.topo.Seed + int64(i+1)*104729,
			FetchOpts: []netio.FetcherOption{func(c *netio.FetcherConfig) {
				c.BackoffBase, c.BackoffMax = 2*time.Millisecond, 50*time.Millisecond
				c.Seed = m.topo.Seed + int64(i)
			}},
			ServerOpts: srvOpts,
		})
		if err != nil {
			rln.Close()
			m.Close()
			return err
		}
		m.relays = append(m.relays, relay)
		if reg := m.topo.Registry; reg != nil {
			// Per-relay downstream ledgers, accumulated across restarts, so a
			// single scrape can check offered == sent + shed on drained and
			// surviving relays alike.
			relay := relay
			for _, g := range []struct {
				name, help string
				value      func(netio.CounterView) int64
			}{
				{"blocks_offered", "blocks offered to delivery queues across restarts",
					func(v netio.CounterView) int64 { return v.BlocksOffered }},
				{"blocks_sent", "blocks fully written to peers across restarts",
					func(v netio.CounterView) int64 { return v.BlocksSent }},
				{"blocks_shed", "blocks dropped by a failed write or at teardown across restarts",
					func(v netio.CounterView) int64 { return v.BlocksShed }},
			} {
				g := g
				if err := reg.RegisterFunc(fmt.Sprintf("mesh.relay%d_%s", i, g.name),
					fmt.Sprintf("relay %d downstream %s", i, g.help), func() float64 {
						return float64(g.value(relay.Ledger()))
					}); err != nil {
					m.Close()
					return err
				}
			}
		}
		if err := m.ctl.Add(id, relay.Addr(), relay.probe, fullRank); err != nil {
			m.Close()
			return err
		}
	}

	go m.ctl.Run(m.ctx, m.topo.Sweep)
	return nil
}

// AddLeaf assigns one more leaf to a relay and launches its fetch,
// returning the leaf. Safe to call concurrently with Snapshot and with other
// AddLeaf calls.
func (m *Mesh) AddLeaf(ctx context.Context) (*Leaf, error) {
	m.leavesMu.Lock()
	defer m.leavesMu.Unlock()
	leaf := &Leaf{ID: len(m.leaves), done: make(chan struct{})}
	rt, _, err := m.ctl.assign(leaf.ID)
	if err != nil {
		return nil, err
	}
	leaf.rt = rt
	if err := m.startLeafFetch(ctx, leaf); err != nil {
		m.ctl.Release(leaf.ID)
		return nil, err
	}
	m.leaves = append(m.leaves, leaf)
	return leaf, nil
}

// startLeafFetch runs one leaf's resilient fetch in a goroutine, wiring the
// mesh's monotone-rank check: at every handshake the leaf's ranks must be at
// least what they were at the one before (any regression lands in
// mesh.rank_regressions_total).
func (m *Mesh) startLeafFetch(ctx context.Context, leaf *Leaf) error {
	prev := map[uint32]int{}
	cfg := netio.DefaultFetcherConfig()
	cfg.BackoffBase, cfg.BackoffMax = 2*time.Millisecond, 50*time.Millisecond
	cfg.Seed = m.topo.Seed + int64(1000+leaf.ID)
	cfg.TraceNode = fmt.Sprintf("leaf-%d", leaf.ID)
	cfg.SessionHook = func(netio.SessionInfo) {
		// The hook runs in the fetch goroutine, so Ranks is safe and prev
		// needs no lock.
		for id, r := range leaf.f.Ranks() {
			if r < prev[id] {
				m.rankRegressions.Inc()
			}
			prev[id] = r
		}
	}
	if m.topo.LeafFetchOpts != nil {
		for _, opt := range m.topo.LeafFetchOpts(leaf.ID) {
			opt(&cfg)
		}
	}
	dial := m.ctl.dial(leaf.rt)
	if m.topo.DownstreamFaults != nil {
		dial = chaosDial(*m.topo.DownstreamFaults, m.downCtr, &m.downSeq, dial)
	}
	f, err := netio.NewFetcherFromConfig(dial, cfg)
	if err != nil {
		return fmt.Errorf("mesh: leaf %d: %w", leaf.ID, err)
	}
	leaf.f = f
	leaf.started = time.Now()
	go func() {
		res, err := f.Fetch(ctx)
		leaf.res, leaf.err = res, err
		leaf.finished = time.Now()
		m.ctl.Release(leaf.ID)
		m.leafCompletions.Inc()
		close(leaf.done)
	}()
	return nil
}

// WaitLeaves blocks until the given leaves' fetches finish (all of the
// mesh's leaves when none are named) or ctx ends, then returns the first
// leaf error, if any.
func (m *Mesh) WaitLeaves(ctx context.Context, leaves ...*Leaf) error {
	if len(leaves) == 0 {
		leaves = m.Leaves()
	}
	for _, leaf := range leaves {
		select {
		case <-leaf.Done():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, leaf := range leaves {
		if _, err := leaf.Result(); err != nil {
			return fmt.Errorf("mesh: leaf %d: %w", leaf.ID, err)
		}
	}
	return nil
}

// WaitWarm blocks until every relay's upstream fetch has returned — a
// relay's fetch returns exactly when it holds full rank for every segment,
// and from then on leaves never depend on the origin — or ctx ends. A relay
// whose fetch failed (it was closed before it warmed) is an error at once.
// It ends with a health sweep, so a relay that stalled while it filled is
// back in the active rotation when WaitWarm returns.
func (m *Mesh) WaitWarm(ctx context.Context) error {
	for i, r := range m.relays {
		select {
		case <-r.fetchDone:
		case <-ctx.Done():
			return fmt.Errorf("mesh: relays never warmed (%d/%d at full rank): %w", i, len(m.relays), ctx.Err())
		}
		if r.fetchErr != nil {
			return fmt.Errorf("mesh: %s never warmed: %w", r.ID(), r.fetchErr)
		}
	}
	m.ctl.Step()
	return nil
}

// relay returns the relay named id.
func (m *Mesh) relay(id string) (*Relay, error) {
	for _, r := range m.relays {
		if r.ID() == id {
			return r, nil
		}
	}
	return nil, fmt.Errorf("mesh: no relay %q", id)
}

// KillRelay simulates the abrupt death of relay id: the relay's listener,
// server, and upstream fetch are torn down. The next health sweep reads it
// closed and buries it, and remediation moves the leaves routed to it.
func (m *Mesh) KillRelay(id string) error {
	r, err := m.relay(id)
	if err != nil {
		return err
	}
	r.Close()
	return nil
}

// RestartRelay gracefully cycles relay id with zero loss: SetDraining takes
// it out of the rotation and moves every leaf routed to it onto a usable
// survivor at once, without waiting for a sweep. The relay's server then
// drains: late dialers get BUSY, in-flight sessions run to full rank within
// ctx. A fresh server over the same recoders rejoins the rotation at a new
// address, and Rejoin points the leaves that had no survivor to move to there.
// Rank never regresses: the recoders survive, and every moved leaf carries
// its decoder state to its new relay. A drain that outlives ctx still
// finishes the restart; its error is returned after the relay has rejoined.
func (m *Mesh) RestartRelay(ctx context.Context, id string) error {
	target, err := m.relay(id)
	if err != nil {
		return err
	}
	if !m.ctl.SetDraining(id) {
		return fmt.Errorf("mesh: relay %q is not eligible to drain", id)
	}
	addr, err := target.Restart(ctx)
	if addr == "" {
		return err
	}
	if !m.ctl.Rejoin(id, addr) {
		return fmt.Errorf("mesh: relay %q could not rejoin the rotation", id)
	}
	return err
}

// Relays returns the mesh's relays in start order.
func (m *Mesh) Relays() []*Relay { return m.relays }

// Leaves returns the mesh's leaves in start order.
func (m *Mesh) Leaves() []*Leaf {
	m.leavesMu.Lock()
	defer m.leavesMu.Unlock()
	return slices.Clone(m.leaves)
}

// Control returns the control plane: members, health and leaf routes.
func (m *Mesh) Control() *Control { return m.ctl }

// OriginAddr returns the origin's loopback address; valid after Start.
func (m *Mesh) OriginAddr() string { return m.originLn.Addr().String() }

// Origin returns the origin server.
func (m *Mesh) Origin() *netio.Server { return m.origin }

// LeafView is one leaf's state for snapshots. Relay is empty once the leaf
// has finished; Target and Moves — the address its dials last went to and how
// many times the control plane changed it after the assignment — stay.
type LeafView struct {
	ID         int    `json:"id"`
	Relay      string `json:"relay"`
	Target     string `json:"target"`
	Records    int64  `json:"records"`
	Reconnects int64  `json:"reconnects"`
	Moves      int64  `json:"moves"`
	Done       bool   `json:"done"`
	Error      string `json:"error,omitempty"`
}

// MeshSnapshot is a point-in-time copy of the whole mesh, JSON-encodable
// for `nc mesh -snapshot`.
type MeshSnapshot struct {
	Origin       netio.Snapshot `json:"origin"`
	Members      []MemberView   `json:"members"`
	Leaves       []LeafView     `json:"leaves"`
	Remediations int64          `json:"remediations"`
	// Tapped is the upstream records the relays absorbed: their fetches'
	// records, less the corrupt, malformed and out-of-range ones. Emitted is
	// the blocks they recoded, their servers' BlocksEncoded across restarts.
	Tapped  int64 `json:"records_tapped"`
	Emitted int64 `json:"blocks_recoded"`
}

// Snapshot copies the mesh state.
func (m *Mesh) Snapshot() MeshSnapshot {
	snap := MeshSnapshot{
		Origin:       m.origin.Snapshot(),
		Members:      m.ctl.Snapshot(),
		Remediations: m.ctl.Remediations(),
		Tapped:       m.tapped(),
		Emitted:      m.emitted(),
	}
	routes := m.ctl.Routes()
	for _, leaf := range m.Leaves() {
		lv := LeafView{
			ID:         leaf.ID,
			Relay:      routes[leaf.ID],
			Records:    leaf.Records(),
			Reconnects: leaf.Reconnects(),
		}
		lv.Target, lv.Moves = m.ctl.target(leaf.rt)
		select {
		case <-leaf.Done():
			lv.Done = true
			if _, err := leaf.Result(); err != nil {
				lv.Error = err.Error()
			}
		default:
		}
		snap.Leaves = append(snap.Leaves, lv)
	}
	return snap
}

// tapped sums the upstream records absorbed into relay recoders, and emitted
// the blocks relays recoded, across their restarts.
func (m *Mesh) tapped() int64  { return m.relaySum((*Relay).tapped) }
func (m *Mesh) emitted() int64 { return m.relaySum((*Relay).recoded) }

func (m *Mesh) relaySum(count func(*Relay) int64) int64 {
	var n int64
	for _, r := range m.relays {
		n += count(r)
	}
	return n
}

// Close tears the whole mesh down. Idempotent.
func (m *Mesh) Close() {
	if m.cancel != nil {
		m.cancel()
	}
	for _, r := range m.relays {
		r.Close()
	}
	m.origin.Shutdown()
	if m.originLn != nil {
		m.originLn.Close()
	}
}
