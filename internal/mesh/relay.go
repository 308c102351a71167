package mesh

import (
	"context"
	"fmt"
	"net"
	"sync"

	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

// Relay stage spans: one absorb span per structurally valid upstream record,
// one recode span per batch of emissions. Free with no obs sink installed.
var (
	stageRelayAbsorb = obs.StageOf("mesh.relay_absorb")
	stageRelayRecode = obs.StageOf("mesh.recode")
)

// RelayConfig configures one recoding relay.
type RelayConfig struct {
	// ID names the relay in the control plane.
	ID string
	// Upstream dials the tier above (the origin, in the standard two-tier
	// topology). The relay's resilient fetcher owns reconnection.
	Upstream netio.DialFunc
	// Listener is where the relay serves downstream. The relay takes
	// ownership and closes it on Close.
	Listener net.Listener
	// XorRecode constrains the relay to GF(2) recombinations through the
	// XOR kernels (rlnc.WithXorRecode) and re-declares the downstream
	// session in ModeSystematic so binary emissions travel in the compact
	// XNC2 encoding. Default: dense GF(2^8) recombinations in ModeDense.
	XorRecode bool
	// Seed drives the relay's recombination coefficient streams.
	Seed int64
	// FetchOpts / ServerOpts are mutations StartRelay applies, once, to the
	// upstream fetcher's and downstream server's configs (chaos injection,
	// metrics, queue tuning). FetchOpts run after the relay has installed
	// its own session hook and its recoder bank as the fetch's sink; add a
	// hook with netio.WithSessionHook so the relay's keeps running first. A
	// record tap sees each record after the bank has absorbed it. The slices
	// are only read.
	FetchOpts  []netio.FetcherOption
	ServerOpts []netio.ServerOption
	// Tapped / Emitted, when non-nil, accumulate structurally valid upstream
	// records and downstream blocks recoded — shared mesh-wide counters.
	Tapped, Emitted *obs.Counter
}

// Relay is one recoding node: a resilient upstream fetch whose sink is a bank
// of per-segment rlnc.Recoders, and a downstream netio source server whose
// records are fresh recombinations drawn from them. The recoder is the
// relay's one basis for a segment: each upstream record is reduced and kept
// once, and the relay never decodes — emitted coefficients are already
// re-expressed in terms of the original source blocks, so leaves are
// oblivious to the hop (paper Sec. 2). It starts serving a segment after the
// very first upstream record for it lands, and keeps serving from accumulated
// rank even if its upstream dies.
type Relay struct {
	id  string
	cfg RelayConfig
	// srvCfg configures every downstream server the relay builds: cfg's
	// ServerOpts applied once in StartRelay, plus the inherited trace context.
	srvCfg netio.ServerConfig

	mu       sync.Mutex
	ln       net.Listener  // current downstream listener; swapped by Restart
	srv      *netio.Server // current downstream server; swapped by Restart
	retired  netio.CounterView
	info     netio.SessionInfo // learned from the upstream handshake
	recoders []*rlnc.Recoder
	// recs and rows are the downstream pump's batch — the records Records
	// returns and their [C | x] rows — reused round after round under mu.
	recs, rows [][]byte

	// serveCtx bounds every downstream server the relay ever starts,
	// including post-Restart replacements.
	serveCtx context.Context

	ready       chan struct{} // closed once info and recoders exist
	upFetch     *netio.Fetcher
	fetchCancel context.CancelFunc
	fetchDone   chan struct{}
	// fetched and fetchErr are the upstream fetch's outcome once fetchDone
	// is closed: ranks and stats only, the records are in the recoders.
	fetched   *netio.FetchResult
	fetchErr  error
	closeOnce sync.Once
}

// StartRelay launches a relay: it begins the upstream fetch, waits for the
// first successful handshake (which defines the object the relay will
// re-declare downstream), then starts the downstream server on
// cfg.Listener. It fails if ctx ends before the upstream ever answers.
func StartRelay(ctx context.Context, cfg RelayConfig) (*Relay, error) {
	if cfg.Upstream == nil || cfg.Listener == nil {
		return nil, fmt.Errorf("mesh: relay %q needs an upstream dialer and a listener", cfg.ID)
	}
	r := &Relay{
		id:        cfg.ID,
		cfg:       cfg,
		srvCfg:    netio.DefaultServerConfig(),
		ln:        cfg.Listener,
		serveCtx:  ctx,
		ready:     make(chan struct{}),
		fetchDone: make(chan struct{}),
	}
	for _, opt := range cfg.ServerOpts {
		opt(&r.srvCfg)
	}
	fcfg := netio.DefaultFetcherConfig()
	fcfg.SessionHook = r.onSession
	fcfg.Sink = (*relayBank)(r)
	fcfg.TraceNode = cfg.ID + ".fetch"
	for _, opt := range cfg.FetchOpts {
		opt(&fcfg)
	}
	f, err := netio.NewFetcherFromConfig(cfg.Upstream, fcfg)
	if err != nil {
		return nil, fmt.Errorf("mesh: relay %q: %w", cfg.ID, err)
	}
	r.upFetch = f

	fctx, cancel := context.WithCancel(ctx)
	r.fetchCancel = cancel
	go func() {
		defer close(r.fetchDone)
		// The fetch ends when the relay holds full rank for every segment
		// (or fctx is cancelled); the relay then keeps serving from its
		// recoders with the upstream connection released.
		r.fetched, r.fetchErr = f.Fetch(fctx)
	}()

	select {
	case <-r.ready:
	case <-ctx.Done():
		r.Close()
		return nil, fmt.Errorf("mesh: relay %q never reached its upstream: %w", cfg.ID, ctx.Err())
	}

	// A traced upstream handshake propagates through the relay: the
	// downstream server inherits the transfer's trace ID (its root span
	// parenting under the origin's), and every server a later Restart builds
	// inherits it too, because Restart reuses srvCfg.
	if tr, root, ok := f.TraceContext(); ok {
		r.srvCfg.TraceNode, r.srvCfg.TraceID, r.srvCfg.TraceParent = cfg.ID, tr, root
	}
	srv, err := netio.NewSourceServerFromConfig((*relaySource)(r), r.srvCfg)
	if err != nil {
		r.Close()
		return nil, err
	}
	r.srv = srv
	go srv.Serve(ctx, r.ln)
	return r, nil
}

// onSession captures the upstream session shape on the first handshake and
// builds the per-segment recoders. Later handshakes are reconnects of the
// same session (the fetcher enforces header identity) and are ignored.
func (r *Relay) onSession(si netio.SessionInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recoders != nil {
		return
	}
	downstream := si
	if r.cfg.XorRecode {
		downstream.Mode = netio.ModeSystematic
	} else {
		downstream.Mode = netio.ModeDense
	}
	recs := make([]*rlnc.Recoder, si.Segments)
	for i := range recs {
		opts := []rlnc.Option{rlnc.WithSeed(r.cfg.Seed + int64(i)*7919)}
		if r.cfg.XorRecode {
			opts = append(opts, rlnc.WithXorRecode())
		}
		rec, err := rlnc.NewRecoder(si.Params, opts...)
		if err != nil {
			// The params came from a handshake the fetcher validated.
			panic(fmt.Sprintf("mesh: recoder for handshake params: %v", err))
		}
		recs[i] = rec
	}
	r.info = downstream
	r.recoders = recs
	close(r.ready)
}

// relayBank adapts a Relay to netio.Sink: the upstream fetch absorbs straight
// into the recoders onSession built. Dependent blocks are dropped at the
// recoder's door, and one for a segment at full rank is not reduced at all;
// Add copies what it keeps, so the fetcher reuses the block.
type relayBank Relay

func (rb *relayBank) Absorb(b *rlnc.CodedBlock) (bool, error) {
	r := (*Relay)(rb)
	sp := stageRelayAbsorb.Start()
	r.mu.Lock()
	rec := r.recoders[b.SegmentID]
	before := rec.Rank()
	var err error
	if before < r.info.Params.BlockCount {
		err = rec.Add(b)
	}
	innovative := rec.Rank() > before
	r.mu.Unlock()
	sp.End()
	if r.cfg.Tapped != nil {
		r.cfg.Tapped.Inc()
	}
	return innovative, err
}

// Rank is 0 for every segment until onSession has built the recoders.
func (rb *relayBank) Rank(seg uint32) int {
	r := (*Relay)(rb)
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(seg) >= len(r.recoders) {
		return 0
	}
	return r.recoders[seg].Rank()
}

// ID returns the relay's control-plane name.
func (r *Relay) ID() string { return r.id }

// Addr returns the relay's current downstream serving address; Restart moves
// it to a fresh listener.
func (r *Relay) Addr() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ln.Addr().String()
}

// Info returns the session the relay declares downstream (valid once
// StartRelay has returned).
func (r *Relay) Info() netio.SessionInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.info
}

// TotalRank sums the relay's recoder ranks across segments — the health
// checker's progress probe.
func (r *Relay) TotalRank() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	total := 0
	for _, rec := range r.recoders {
		total += rec.Rank()
	}
	return total
}

// SegmentRanks returns the per-segment recoder ranks.
func (r *Relay) SegmentRanks() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	ranks := make([]int, len(r.recoders))
	for i, rec := range r.recoders {
		ranks[i] = rec.Rank()
	}
	return ranks
}

// Server exposes the current downstream server for snapshots; nil until
// StartRelay returns.
func (r *Relay) Server() *netio.Server {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.srv
}

// Restart gracefully cycles the relay's downstream server: the serving side
// drains — new handshakes are answered BUSY, in-flight sessions run to rank
// completion, bounded by ctx — then a fresh listener and server over the same
// recoders take its place. The recoders, and therefore all accumulated rank,
// survive the restart; the serving address changes, so the caller
// re-registers the relay with the control plane (Pool.Rejoin). The drained
// server's traffic ledger is folded into Ledger before the swap, keeping
// offered == sent + shed exact across the relay's whole history. Returns the
// new serving address. A drain cut short by ctx has still shut the old server
// down, so the restart goes on and returns the new address with the drain's
// error; the address is empty only when no new server could start.
func (r *Relay) Restart(ctx context.Context) (string, error) {
	r.mu.Lock()
	oldSrv, oldLn := r.srv, r.ln
	r.mu.Unlock()
	drainErr := oldSrv.Drain(ctx)
	if drainErr != nil {
		drainErr = fmt.Errorf("mesh: relay %q drain: %w", r.id, drainErr)
	}
	oldLn.Close()
	drained := oldSrv.Snapshot().CounterView

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("mesh: relay %q relisten: %w", r.id, err)
	}
	srv, err := netio.NewSourceServerFromConfig((*relaySource)(r), r.srvCfg)
	if err != nil {
		ln.Close()
		return "", fmt.Errorf("mesh: relay %q restart: %w", r.id, err)
	}
	r.mu.Lock()
	// Fold and swap in one critical section so a concurrent Ledger never
	// double-counts the drained server or misses it.
	r.retired = r.retired.Add(drained)
	r.srv, r.ln = srv, ln
	ctx = r.serveCtx
	r.mu.Unlock()
	go srv.Serve(ctx, ln)
	return ln.Addr().String(), drainErr
}

// Ledger returns the relay's downstream traffic totals accumulated across
// every server it has run, including servers retired by Restart. After all
// sessions end (drain or shutdown) the ledger balances exactly:
// BlocksOffered == BlocksSent + BlocksShed.
func (r *Relay) Ledger() netio.CounterView {
	r.mu.Lock()
	retired, srv := r.retired, r.srv
	r.mu.Unlock()
	// Snapshot outside r.mu: the server's pump may be blocked in
	// relaySource.Records, which holds r.mu, and a ledger read need not wait
	// out a round.
	if srv == nil {
		return retired
	}
	return retired.Add(srv.Snapshot().CounterView)
}

// Close tears the relay down: upstream fetch cancelled, downstream server
// shut down, listener closed. Idempotent.
func (r *Relay) Close() {
	r.closeOnce.Do(func() {
		r.fetchCancel()
		r.mu.Lock()
		srv, ln := r.srv, r.ln
		r.mu.Unlock()
		if srv != nil {
			srv.Shutdown()
		}
		ln.Close()
		<-r.fetchDone
	})
}

// relaySource adapts a Relay to netio.RecordSource: each Records call draws
// fresh recombinations, dense or GF(2), from the segment's recoder straight
// into the server's frames. A segment with no rank yet returns nothing and the
// server pump backs off briefly.
type relaySource Relay

func (rs *relaySource) Info() netio.SessionInfo { return (*Relay)(rs).Info() }

func (rs *relaySource) Records(seg, batch int, alloc func(int) []byte) [][]byte {
	r := (*Relay)(rs)
	sp := stageRelayRecode.Start()
	defer sp.End()
	r.mu.Lock()
	defer r.mu.Unlock()
	if seg >= len(r.recoders) || r.recoders[seg].Rank() == 0 {
		return nil
	}
	// The recode span parents under the upstream pump round that most
	// recently fed the recoders: the causal link tying a relay's emissions
	// back to origin encode work across the tier boundary. Dry polls above
	// never open a span, so an idle relay does not flood the ring.
	if tr, _, ok := r.upFetch.TraceContext(); ok {
		tsp := trace.Begin(r.id, "recode", tr, r.upFetch.LastRoundSpan(), int32(seg))
		defer tsp.End()
	}
	// A record is a [C | x] row, and so is every input the recoder holds:
	// the batch is laid out as XNC1, recoded from the held rows into the
	// frames' by one EmitInto, then sealed — under XorRecode (ModeSystematic
	// downstream) each binary emission narrowed to XNC2 on the way.
	p, mode := r.info.Params, r.info.Mode
	recs, rows := r.recs[:0], r.rows[:0]
	for range batch {
		framed, row := netio.LayDenseRecord(uint32(seg), p, alloc)
		recs = append(recs, framed)
		rows = append(rows, row)
	}
	r.rows = rows
	if err := r.recoders[seg].EmitInto(rows); err != nil {
		recs = recs[:0]
	}
	for i, framed := range recs {
		recs[i] = netio.SealRecord(framed, p, mode)
	}
	r.recs = recs
	if r.cfg.Emitted != nil {
		r.cfg.Emitted.Add(int64(len(recs)))
	}
	return recs
}
