package mesh

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

// Topology describes a mesh run: one origin serving media, a tier of
// recoding relays fetching from it, and a tier of leaf fetchers assigned to
// relays by the coordinator. Zero-valued durations get fast-sweep defaults
// sized for in-process loopback runs.
type Topology struct {
	// Media and Params define the object the origin serves.
	Media  []byte
	Params rlnc.Params

	// Relays and Leaves size the two tiers.
	Relays int
	Leaves int

	// OriginMode is the origin's wire mode (default ModeDense).
	OriginMode netio.WireMode
	// XorRecode switches every relay to GF(2) XOR recombination with
	// ModeSystematic downstream framing.
	XorRecode bool
	// OriginMaxSessions caps concurrent origin sessions (0 = unlimited) —
	// the knob that makes a relay tier pay off: relays warm up, release
	// their origin slots, and fan out in parallel.
	OriginMaxSessions int
	// OriginPace floors the origin's pump-round interval, modeling a
	// capacity-constrained origin uplink (see netio.ServerConfig.Pace). Warm
	// relays serve unpaced, so this is the constraint a relay tier
	// overcomes.
	OriginPace time.Duration

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

	// Heartbeat is the relay heartbeat period; Sweep the remediation
	// period; Health the failure-detector thresholds.
	Heartbeat time.Duration
	Sweep     time.Duration
	Health    HealthConfig

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
	// relay's downstream server config (queue tuning, pacing, retry-after
	// hints). The resulting config is reused for every replacement server a
	// Restart builds, so it must not bind single-use resources like a
	// metrics registry.
	RelayServerOpts func(relay int) []netio.ServerOption
}

// withDefaults fills in the fast-sweep defaults.
func (t Topology) withDefaults() Topology {
	if t.Heartbeat <= 0 {
		t.Heartbeat = 15 * time.Millisecond
	}
	if t.Sweep <= 0 {
		t.Sweep = 20 * time.Millisecond
	}
	if t.Health.SuspectAfter <= 0 {
		t.Health.SuspectAfter = 4 * t.Heartbeat
	}
	if t.Health.DeadAfter <= 0 {
		t.Health.DeadAfter = 8 * t.Heartbeat
	}
	return t
}

// Leaf is one downstream fetcher: a Redirector the coordinator owns plus
// the resilient fetch running over it.
type Leaf struct {
	ID int

	rd *netio.Redirector
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

// Redirector exposes the leaf's dial target for inspection.
func (l *Leaf) Redirector() *netio.Redirector { return l.rd }

// FetchStats snapshots the leaf's fetch ledger — including the admission
// counters that record BUSY and REDIRECT decisions — safe during the fetch.
func (l *Leaf) FetchStats() *netio.FetchStats { return l.f.Stats() }

// Duration returns the leaf's fetch wall-clock time; valid after Done.
func (l *Leaf) Duration() time.Duration { return l.finished.Sub(l.started) }

// Mesh is a running topology.
type Mesh struct {
	topo Topology

	origin   *netio.Server
	originLn net.Listener

	pool   *Pool
	coord  *Coordinator
	health *Health
	rem    *Remediator

	relays  []*Relay
	hbStops map[string]chan struct{}
	leaves  []*Leaf

	upCtr, downCtr *faultnet.Counters
	upSeq, downSeq atomic.Int64

	tapped          obs.Counter
	emitted         obs.Counter
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
	if topo.Leaves < 0 {
		return nil, errors.New("mesh: negative leaf count")
	}
	ocfg := netio.DefaultServerConfig()
	ocfg.Seed = topo.Seed
	ocfg.Mode = topo.OriginMode
	ocfg.MaxSessions = topo.OriginMaxSessions
	ocfg.Pace = topo.OriginPace
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
		pool:    NewPool(),
		hbStops: make(map[string]chan struct{}),
		upCtr:   &faultnet.Counters{},
		downCtr: &faultnet.Counters{},
	}
	m.coord = NewCoordinator(m.pool)
	m.health = NewHealth(m.pool, topo.Health)
	m.rem = NewRemediator(m.health, m.coord, topo.Sweep)

	if reg := topo.Registry; reg != nil {
		for _, err := range []error{
			m.pool.Instrument(reg),
			m.coord.Instrument(reg),
			m.rem.Instrument(reg),
			reg.RegisterCounter("mesh.records_tapped_total",
				"upstream records absorbed into relay recoders", &m.tapped),
			reg.RegisterCounter("mesh.blocks_recoded_total",
				"recoded blocks emitted by relays", &m.emitted),
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
// fetching (through upstream chaos, if configured) and serving, heartbeats
// flowing, and the remediation loop sweeping. It returns once every relay
// has completed its first upstream handshake and registered with the pool.
// The mesh runs until ctx ends or Close is called.
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
			ID:        id,
			Upstream:  up,
			Listener:  rln,
			XorRecode: m.topo.XorRecode,
			Seed:      m.topo.Seed + int64(i+1)*104729,
			FetchOpts: []netio.FetcherOption{func(c *netio.FetcherConfig) {
				c.BackoffBase, c.BackoffMax = 2*time.Millisecond, 50*time.Millisecond
				c.Seed = m.topo.Seed + int64(i)
			}},
			ServerOpts: srvOpts,
			Tapped:     &m.tapped,
			Emitted:    &m.emitted,
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
		if err := m.pool.Add(id, relay.Addr(), relay.TotalRank, fullRank); err != nil {
			m.Close()
			return err
		}
		stop := make(chan struct{})
		m.hbStops[id] = stop
		go m.heartbeatLoop(id, stop)
	}

	go m.rem.Run(m.ctx)
	return nil
}

// heartbeatLoop beats for relay id until its stop channel closes (relay
// killed) or the mesh shuts down.
func (m *Mesh) heartbeatLoop(id string, stop chan struct{}) {
	t := time.NewTicker(m.topo.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-m.ctx.Done():
			return
		case <-t.C:
			m.pool.Heartbeat(id)
		}
	}
}

// StartLeaves assigns every topology leaf a relay and launches its fetch.
// Call after Start.
func (m *Mesh) StartLeaves(ctx context.Context) error {
	for i := 0; i < m.topo.Leaves; i++ {
		if _, err := m.AddLeaf(ctx); err != nil {
			return err
		}
	}
	return nil
}

// AddLeaf assigns one more leaf to a relay and launches its fetch,
// returning the leaf. Not safe to call concurrently with Snapshot or other
// AddLeaf calls — the driver (a test or the CLI) sequences leaf waves.
func (m *Mesh) AddLeaf(ctx context.Context) (*Leaf, error) {
	leaf := &Leaf{ID: len(m.leaves), rd: netio.NewRedirector(""), done: make(chan struct{})}
	if _, err := m.coord.Assign(leaf.ID, leaf.rd); err != nil {
		return nil, err
	}
	if err := m.startLeafFetch(ctx, leaf); err != nil {
		m.coord.Release(leaf.ID)
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
	// A draining relay's REDIRECT decision walks the leaf straight to the
	// named survivor — the protocol-level fast path; remediation's route
	// sweep remains the control-plane backstop for leaves that were not
	// connected during the drain window.
	cfg.Redirector = leaf.rd
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
	dial := leaf.rd.Dial
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
		m.coord.Release(leaf.ID)
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
		leaves = m.leaves
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

// WaitWarm blocks until every relay holds full upstream rank for every
// segment — from then on leaves never depend on the origin — and its first
// heartbeat has put it in the active rotation, or ctx ends; the error says how
// many relays got there.
func (m *Mesh) WaitWarm(ctx context.Context) error {
	full := m.origin.Segments() * m.topo.Params.BlockCount
	for {
		warm := 0
		for _, r := range m.relays {
			if st, _ := m.pool.StateOf(r.ID()); st == StateActive && r.TotalRank() == full {
				warm++
			}
		}
		if warm == len(m.relays) {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("mesh: relays never warmed (%d/%d active at full rank): %w", warm, len(m.relays), ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// KillRelay simulates the abrupt death of relay id: heartbeats stop and the
// relay's listener, server, and upstream fetch are torn down. Leaves routed
// to it are left to the remediation loop.
func (m *Mesh) KillRelay(id string) error {
	stop, ok := m.hbStops[id]
	if !ok {
		return fmt.Errorf("mesh: no relay %q", id)
	}
	select {
	case <-stop:
	default:
		close(stop)
	}
	for _, r := range m.relays {
		if r.ID() == id {
			r.Close()
			return nil
		}
	}
	return fmt.Errorf("mesh: no relay %q", id)
}

// RestartRelay gracefully cycles relay id with zero loss: the pool marks it
// draining (the coordinator stops assigning to it and remediation walks
// routed leaves off), the relay's server drains — REDIRECT pointing
// connected leaves at a surviving relay, in-flight sessions running
// to completion within ctx — and a fresh server over the same recoders
// rejoins the rotation at a new address. Rank never regresses: the recoders
// survive, and every redirected leaf carries its decoder state to the
// survivor.
func (m *Mesh) RestartRelay(ctx context.Context, id string) error {
	var target *Relay
	for _, r := range m.relays {
		if r.ID() == id {
			target = r
			break
		}
	}
	if target == nil {
		return fmt.Errorf("mesh: no relay %q", id)
	}
	if !m.pool.SetDraining(id) {
		return fmt.Errorf("mesh: relay %q is not eligible to drain", id)
	}
	// The redirect target is a survivor the coordinator would assign to — an
	// active one, or a warm one whose first heartbeat is still due; with none
	// the drain answers BUSY and leaves fall back on remediation.
	redirect := ""
	if survivors := m.pool.Usable(id); len(survivors) > 0 {
		redirect, _ = m.pool.Addr(survivors[0])
	}
	addr, err := target.Restart(ctx, redirect)
	if err != nil {
		return err
	}
	if !m.pool.Rejoin(id, addr) {
		return fmt.Errorf("mesh: relay %q could not rejoin the pool", id)
	}
	m.coord.Moved(id, addr)
	return nil
}

// Relays returns the mesh's relays in start order.
func (m *Mesh) Relays() []*Relay { return m.relays }

// Leaves returns the mesh's leaves in start order.
func (m *Mesh) Leaves() []*Leaf { return m.leaves }

// Pool returns the membership registry.
func (m *Mesh) Pool() *Pool { return m.pool }

// Coordinator returns the assignment plane.
func (m *Mesh) Coordinator() *Coordinator { return m.coord }

// Remediator returns the remediation loop.
func (m *Mesh) Remediator() *Remediator { return m.rem }

// OriginAddr returns the origin's loopback address; valid after Start.
func (m *Mesh) OriginAddr() string { return m.originLn.Addr().String() }

// Origin returns the origin server.
func (m *Mesh) Origin() *netio.Server { return m.origin }

// LeafView is one leaf's state for snapshots.
type LeafView struct {
	ID         int    `json:"id"`
	Relay      string `json:"relay"`
	Target     string `json:"target"`
	Records    int64  `json:"records"`
	Reconnects int64  `json:"reconnects"`
	Redirects  int64  `json:"redirects"`
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
	Tapped       int64          `json:"records_tapped"`
	Emitted      int64          `json:"blocks_recoded"`
}

// Snapshot copies the mesh state.
func (m *Mesh) Snapshot() MeshSnapshot {
	snap := MeshSnapshot{
		Origin:       m.origin.Snapshot(),
		Members:      m.pool.Snapshot(),
		Remediations: m.rem.Remediations(),
		Tapped:       m.tapped.Load(),
		Emitted:      m.emitted.Load(),
	}
	routes := m.coord.Routes()
	for _, leaf := range m.leaves {
		lv := LeafView{
			ID:         leaf.ID,
			Relay:      routes[leaf.ID],
			Target:     leaf.rd.Target(),
			Records:    leaf.Records(),
			Reconnects: leaf.Reconnects(),
			Redirects:  leaf.rd.Redirects(),
		}
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
