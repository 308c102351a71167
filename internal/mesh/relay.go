package mesh

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"unsafe"

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
// of per-segment bases, and a downstream netio source server. A segment's
// basis, built on its first record, is its held records — each innovative
// upstream record as it arrived — and an rlnc.Recoder over them. Each
// downstream session is swept the held records of every segment, each as soon
// as the relay holds it, so a leaf that dials a relay still filling reads
// what the relay is sent as it arrives; only a leaf that asks for more is
// sent fresh recombinations drawn from the bases, which are whole by then. It
// re-declares its first upstream session, key included, and recodes in its
// field: in GF(2) (rlnc.WithXorRecode; XNC2 when binary) over
// ModeSystematic, else GF(2^8). It never decodes — coefficients are in terms
// of the original source blocks, so leaves are oblivious to the hop (paper
// Sec. 2) — and serves what it holds even after its upstream dies.
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
	key     uint64            // of the relay's counter session, when counter
	counter bool
	// Segment seg's basis, nil until its first record: recoders[seg] holds the
	// payloads of held[seg], both appended under mu; whole[seg] publishes the
	// held records to sweeps, which read them without mu. spare is the next
	// upstream record's frame.
	recoders []*rlnc.Recoder
	held     [][][]byte
	whole    []heldCount
	spare    []byte
	// arrived is closed, and cleared, by the next record Absorb holds; a sweep
	// that waits for one makes it (relaySource.Arrived).
	arrived atomic.Pointer[chan struct{}]
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

// onSession captures the upstream session shape and key on the first
// handshake — the relay re-declares them downstream — and sizes the
// per-segment slices. Later handshakes are reconnects of the same session (the
// fetcher enforces header identity) and are ignored.
func (r *Relay) onSession(si netio.SessionInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recoders != nil {
		return
	}
	r.info = si
	r.key, r.counter = r.upFetch.CounterKey()
	r.recoders = make([]*rlnc.Recoder, si.Segments)
	r.held = make([][][]byte, si.Segments)
	r.whole = make([]heldCount, si.Segments)
	for i := range r.whole {
		r.whole[i].n = int32(si.Params.BlockCount)
	}
	close(r.ready)
}

// heldCount publishes a segment's held records to the sweeps that read them
// without the relay's lock: Absorb stores the first entry of the slice they
// are in, then the new count, so every record below a count a sweep loads is
// in the array it loads after it. (A slice header published each time the
// slice grows would cost an allocation a growth.)
type heldCount struct {
	count atomic.Int32
	first atomic.Pointer[[]byte]
	n     int32 // the generation size
}

// Load reports whether the segment is whole: all n records held.
func (h *heldCount) Load() bool { return h.count.Load() == h.n }

// relayBank adapts a Relay to netio.Sink: each upstream record is copied once
// into the spare frame, whose payload the segment's recoder holds (the record
// is kept, for sweeps) or drops (the frame stays spare). A record for a
// segment already whole is not reduced at all.
type relayBank Relay

func (rb *relayBank) Absorb(b *rlnc.CodedBlock, wire []byte) (bool, error) {
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
	if key, counter := r.upFetch.CounterKey(); counter && (!r.counter || key != r.key) {
		wire, _ = b.MarshalBinary() // another origin's key: XNC1 (b's shape is valid)
	}
	if len(r.spare) != 4+len(wire) {
		r.spare = make([]byte, 4+len(wire)) // a length prefix, then the record
	}
	frame := r.spare
	binary.BigEndian.PutUint32(frame, uint32(len(wire)))
	copy(frame[4:], wire)
	held, err := rec.Hold(seg, b.Coeffs, frame[len(frame)-4-p.BlockSize:len(frame)-4]) // payload, then CRC
	if !held {
		return false, err
	}
	r.spare = nil
	recs := append(r.held[seg], frame)
	r.held[seg] = recs
	r.whole[seg].first.Store(&recs[0])
	r.whole[seg].count.Store(int32(len(recs)))
	r.rank.Add(1)
	if ch := r.arrived.Swap(nil); ch != nil {
		close(*ch)
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

// relaySource adapts a Relay to netio.RecordSource: a session is swept the
// held records, each as soon as the relay holds it, and each Records call —
// made only for a session that was swept, so over a whole basis — draws fresh
// recombinations, dense or GF(2), from the segment's recoder straight into
// the frames the server hands it.
type relaySource Relay

// Info is the session the relay learned upstream, set before any server exists.
func (rs *relaySource) Info() netio.SessionInfo { return rs.info }

func (rs *relaySource) CounterKey() (uint64, bool) { return rs.key, rs.counter }

// Sweep returns held record i of segment seg as soon as the relay holds it,
// without the relay's lock: one atomic load while it does not.
func (rs *relaySource) Sweep(seg, i int) []byte {
	h := &rs.whole[seg]
	if int32(i) >= h.count.Load() {
		return nil
	}
	return unsafe.Slice(h.first.Load(), i+1)[i]
}

// Arrived returns a channel closed once the relay holds a record it does not
// hold now: what a sweep that found nothing to write waits on.
func (rs *relaySource) Arrived() <-chan struct{} {
	for {
		if ch := rs.arrived.Load(); ch != nil {
			return *ch
		}
		ch := make(chan struct{})
		if rs.arrived.CompareAndSwap(nil, &ch) {
			return ch
		}
	}
}

func (rs *relaySource) Records(seg int, frames [][]byte) int {
	r := (*Relay)(rs)
	sp := stageRelayRecode.Start()
	defer sp.End()
	r.mu.Lock()
	defer r.mu.Unlock()
	// The recode span parents under the upstream server's root span, as the
	// relay's absorb spans do, and counts toward the generation (trace,
	// segment) across the tier boundary.
	if tr, root, ok := r.upFetch.TraceContext(); ok {
		tsp := trace.Begin(r.id, "recode", tr, root, int32(seg))
		defer tsp.End()
	}
	// A recombination has no index: the batch is laid out as XNC1, recoded
	// into the frames' [C | x] rows by one EmitInto, then sealed — over a
	// systematic upstream each binary emission narrowed to XNC2 on the way.
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
