package mesh

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

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
}

// Relay is one recoding node: a resilient upstream fetch whose sink is a bank
// of per-segment bases, and a downstream netio source server that sweeps each
// session the held records of every segment the relay holds whole, and
// otherwise sends fresh recombinations drawn from the bases. A segment's basis,
// built on its first record, is its held records — each innovative upstream
// block, laid once as a sealed XNC1 record — and an rlnc.Recoder over their
// rows. It recodes in its upstream's field and re-declares the upstream's mode:
// over a ModeSystematic upstream, GF(2) recombinations (rlnc.WithXorRecode)
// that travel as XNC2 when binary; over a ModeDense one, dense GF(2^8) ones.
// It never decodes — coefficients are in terms of the original source blocks,
// so leaves are oblivious to the hop (paper Sec. 2) — and serves a segment
// from its first record on, even after its upstream dies.
type Relay struct {
	id  string
	cfg RelayConfig
	// srvCfg configures every downstream server the relay builds: cfg's
	// ServerOpts applied once in StartRelay, plus the inherited trace context.
	srvCfg netio.ServerConfig

	mu      sync.Mutex
	ln      net.Listener  // current downstream listener; swapped by Restart
	srv     *netio.Server // current downstream server; swapped by Restart
	retired netio.CounterView
	info    netio.SessionInfo // learned from the upstream handshake
	// Segment seg's basis, nil until its first record: recoders[seg] holds the
	// rows of held[seg], which is read without mu once whole[seg] is set, after
	// the n-th append. spare is the frame the next upstream record is laid in.
	recoders []*rlnc.Recoder
	held     [][][]byte
	whole    []atomic.Bool
	spare    []byte
	// rows is the [C | x] rows of the downstream pump's batch, reused round
	// after round under mu.
	rows [][]byte
	// rank counts the held records across segments, and closed is set by
	// Close: the control plane's probe reads both without mu.
	rank   atomic.Int64
	closed atomic.Bool

	// serveCtx bounds every downstream server the relay ever starts,
	// including post-Restart replacements.
	serveCtx context.Context

	ready       chan struct{} // closed once info and the per-segment slices exist
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

// onSession captures the upstream session shape on the first handshake — the
// relay re-declares it downstream — and sizes the per-segment slices. Later
// handshakes are reconnects of the same session (the fetcher enforces header
// identity) and are ignored.
func (r *Relay) onSession(si netio.SessionInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recoders != nil {
		return
	}
	r.info = si
	r.recoders = make([]*rlnc.Recoder, si.Segments)
	r.held = make([][][]byte, si.Segments)
	r.whole = make([]atomic.Bool, si.Segments)
	close(r.ready)
}

// relayBank adapts a Relay to netio.Sink: each upstream block is copied once,
// into the spare frame as an XNC1 record, whose row the segment's recoder holds
// (the record is sealed and kept, for sweeps) or drops (the frame stays spare).
// A block for a segment already whole is not reduced at all.
type relayBank Relay

func (rb *relayBank) Absorb(b *rlnc.CodedBlock) (bool, error) {
	r := (*Relay)(rb)
	sp := stageRelayAbsorb.Start()
	defer sp.End()
	p, seg := r.info.Params, b.SegmentID
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.whole[seg].Load() {
		return false, nil
	}
	rec := r.recoders[seg]
	if rec == nil { // the segment's first record: its recoder, in the upstream's field
		opts := []rlnc.Option{rlnc.WithSeed(r.cfg.Seed + int64(seg)*7919)}
		if r.info.Mode == netio.ModeSystematic {
			opts = append(opts, rlnc.WithXorRecode())
		}
		var err error
		if rec, err = rlnc.NewRecoder(p, opts...); err != nil {
			return false, err
		}
		r.recoders[seg] = rec
	}
	if r.spare == nil {
		r.spare = make([]byte, 4+rlnc.WireSize(p)) // a length prefix, then the record
	}
	frame, row := netio.LayDenseRecord(r.spare, seg, p)
	copy(row[copy(row, b.Coeffs):], b.Payload)
	held, err := rec.Hold(seg, row)
	if !held {
		return false, err
	}
	r.spare = nil
	r.held[seg] = append(r.held[seg], netio.SealRecord(frame, p, netio.ModeDense))
	r.rank.Add(1)
	if len(r.held[seg]) == p.BlockCount {
		r.whole[seg].Store(true)
	}
	return true, nil
}

// Rank is a segment's held record count, 0 before its first record.
func (rb *relayBank) Rank(seg uint32) int {
	r := (*Relay)(rb)
	r.mu.Lock()
	defer r.mu.Unlock()
	if int(seg) >= len(r.held) {
		return 0
	}
	return len(r.held[seg])
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

// TotalRank is the relay's rank summed across segments: its held records.
func (r *Relay) TotalRank() int { return int(r.rank.Load()) }

// probe is what the control plane reads of the relay: its total rank and
// whether it is still open. It takes no lock.
func (r *Relay) probe() (rank int, open bool) { return r.TotalRank(), !r.closed.Load() }

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
// re-registers the relay with the control plane (Control.Rejoin). The drained
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

// tapped counts the upstream records that reached the recoders: every one the
// fetch read whole and found well formed, for a segment in range.
func (r *Relay) tapped() int64 {
	st := r.upFetch.Stats()
	return int64(st.Records - st.Corrupt - st.Malformed - st.BadSegment)
}

// recoded counts the blocks the relay recoded across its restarts.
func (r *Relay) recoded() int64 { return r.Ledger().BlocksEncoded }

// Close tears the relay down: marked closed for the control plane, upstream
// fetch cancelled, downstream server shut down, listener closed. Idempotent.
func (r *Relay) Close() {
	r.closeOnce.Do(func() {
		r.closed.Store(true)
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
// into the frames the server hands it; a whole segment is swept its held
// records. A segment with no rank yet fills nothing and the server pump backs
// off briefly.
type relaySource Relay

// Info is the session the relay learned upstream, set before any server exists.
func (rs *relaySource) Info() netio.SessionInfo { return rs.info }

// Sweep returns held record i of a segment the relay holds whole: the record
// itself, or over a systematic upstream a copy narrowed to XNC2 when binary,
// as the origin's are. A segment not yet whole costs one atomic load; every
// handshake asks.
func (rs *relaySource) Sweep(seg, i int) []byte {
	r := (*Relay)(rs)
	if !r.whole[seg].Load() {
		return nil
	}
	rec := r.held[seg][i]
	if r.info.Mode == netio.ModeSystematic {
		return netio.SealRecord(bytes.Clone(rec), r.info.Params, netio.ModeSystematic)
	}
	return rec
}

func (rs *relaySource) Records(seg int, frames [][]byte) int {
	r := (*Relay)(rs)
	sp := stageRelayRecode.Start()
	defer sp.End()
	r.mu.Lock()
	defer r.mu.Unlock()
	if rec := r.recoders[seg]; rec == nil || rec.Rank() == 0 {
		return 0
	}
	// The recode span parents under the upstream server's root span, as the
	// relay's absorb spans do, and counts toward the generation (trace,
	// segment) across the tier boundary. Dry polls above never open a span,
	// so an idle relay does not flood the ring.
	if tr, root, ok := r.upFetch.TraceContext(); ok {
		tsp := trace.Begin(r.id, "recode", tr, root, int32(seg))
		defer tsp.End()
	}
	// A record is a [C | x] row, and every input the recoder holds is the row
	// of a held record: the batch is laid out as XNC1, recoded from the held
	// rows into the frames' by one EmitInto, then sealed — over a systematic
	// upstream each binary emission narrowed to XNC2 on the way.
	p, mode := r.info.Params, r.info.Mode
	rows := r.rows[:0]
	for i, frame := range frames {
		rec, row := netio.LayDenseRecord(frame, uint32(seg), p)
		frames[i], rows = rec, append(rows, row)
	}
	r.rows = rows
	if err := r.recoders[seg].EmitInto(rows); err != nil {
		return 0
	}
	for i, rec := range frames {
		frames[i] = netio.SealRecord(rec, p, mode)
	}
	return len(frames)
}
