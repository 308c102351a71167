package netio

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

// Fetch-stage spans. Free when no obs sink is installed; with one: dial
// latency per connection attempt, backoff sleep per retry, dial-to-handshake
// latency per successful reconnect, and decode latency per absorbed record.
var (
	stageFetchDial    = obs.StageOf("fetch.dial")
	stageFetchBackoff = obs.StageOf("fetch.backoff")
	stageFetchReconn  = obs.StageOf("fetch.reconnect")
	stageFetchDecode  = obs.StageOf("fetch.record_decode")
)

// Resilient-client errors.
var (
	// ErrFetchBudget reports a fetch that exhausted its attempt budget
	// before every segment reached full rank. The FetchResult returned
	// alongside it still carries all accumulated progress.
	ErrFetchBudget = errors.New("netio: fetch attempt budget exhausted")
	// ErrHeaderMismatch reports a reconnect that was answered with a
	// different session header: the server is no longer serving the same
	// object, so accumulated rank cannot be extended.
	ErrHeaderMismatch = errors.New("netio: session header changed across reconnects")
	// ErrBadResumeState reports an unusable FetcherConfig.ResumeState blob.
	ErrBadResumeState = errors.New("netio: bad fetch resume state")
)

// errSinkState refuses State and ResumeState on a sink fetch: its rank lives
// in the sink, not in decoders the fetcher could serialize.
var errSinkState = errors.New("netio: a sink fetch keeps no decoder state to save or resume")

// Sink absorbs a fetch's records in place of the fetcher's own per-segment
// decoders (FetcherConfig.Sink). Both methods run on the fetch goroutine, the
// only writer: a segment's rank changes only through Absorb. Rank is asked per
// record, and for every declared segment at each handshake and at the end.
type Sink interface {
	// Absorb takes one block that passed the checksum, shape and
	// segment-range checks, and reports whether it raised its segment's
	// rank — by exactly one. b is the session's reused block, parsed from
	// rec; both are valid only during the call. An error ends the fetch.
	Absorb(b *rlnc.CodedBlock, rec []byte) (innovative bool, err error)
	// Rank reports segment seg's rank.
	Rank(seg uint32) int
}

// leaf is a leaf fetch's sink: one rlnc.Decoder per segment, built at the
// segment's first record, decoding in place into the segment's window of one
// object buffer — segment s at [s·n·k, (s+1)·n·k) — which becomes
// FetchResult.Payload.
type leaf struct {
	decs     map[uint32]*rlnc.Decoder
	params   rlnc.Params
	segments int
	// obj is the object buffer. The first record that passed the checksum,
	// shape and segment-range checks allocates it, so a header alone pins
	// nothing; a resumed fetch allocates it at its first handshake, where the
	// restored decoders move in.
	obj []byte
}

func (l *leaf) Absorb(b *rlnc.CodedBlock, _ []byte) (bool, error) {
	dec := l.decs[b.SegmentID]
	if dec == nil {
		var err error
		if dec, err = rlnc.NewDecoder(l.params); err != nil {
			return false, err
		}
		if err := l.bind(b.SegmentID, dec); err != nil {
			return false, err
		}
		l.decs[b.SegmentID] = dec
	}
	if dec.Ready() {
		// Round-robin overshoot for an already-finished segment.
		return false, nil
	}
	return dec.AddBlock(b)
}

func (l *leaf) Rank(seg uint32) int {
	if dec := l.decs[seg]; dec != nil {
		return dec.Rank()
	}
	return 0
}

// bind points segment seg's decoder at its window of the object buffer,
// allocating the buffer if this is the first segment to need it.
func (l *leaf) bind(seg uint32, dec *rlnc.Decoder) error {
	size := l.params.SegmentSize()
	if l.obj == nil {
		l.obj = make([]byte, l.segments*size)
	}
	return dec.DecodeInto(l.obj[int(seg)*size : (int(seg)+1)*size])
}

// sessionReaders recycles the per-session read buffers. A session reads its
// handshake and every record through one buffered reader, so a record costs at
// most one read call on the connection (several records per call once the
// socket runs ahead of the decoder) instead of one per framing field, and a
// record is parsed and absorbed where it lies in the buffer. 64 KiB is a few
// records of the paper's streaming shape (k = 4 KiB) and a few hundred of the
// smallest; a session whose records are longer reads through a reader sized
// to its record instead.
var sessionReaders = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}

// DialFunc opens one connection to the serving peer. The Fetcher calls it
// for the initial connection and again for every reconnect.
type DialFunc func(ctx context.Context) (net.Conn, error)

// FetchResult is everything a fetch produced, returned even when the fetch
// failed: RLNC progress is rank, and rank is never worth discarding.
type FetchResult struct {
	// Payload is the complete object, nil unless every segment reached full
	// rank — and always nil on a sink fetch. It is the buffer the segments
	// were decoded into, not a copy.
	Payload []byte
	// Segments holds the segments that reached full rank, keyed by ID, as
	// views of the object buffer; empty on a sink fetch.
	Segments map[uint32]*rlnc.Segment
	// Ranks maps every segment with at least one innovative block to its
	// rank, including partial ones.
	Ranks map[uint32]int
	// Mode is the session coding discipline the server declared in the
	// handshake; meaningful once at least one handshake succeeded.
	Mode WireMode
	// Stats is never nil.
	Stats *FetchStats
}

// Fetcher is a resilient download client for the session protocol. Unlike the
// one-shot Fetch it owns a dial function rather than a connection, and it
// carries its per-segment rank across reconnects: a connection reset, a
// framing loss, or a server restart costs only the bytes in flight, never
// accumulated rank — the property that makes a coded transport need no
// retransmission protocol (paper Sec. 5.1).
//
// A leaf's rank lives in the fetcher's own per-segment decoders, which decode
// the object in place. A relay's lives in the Sink it configures: records go
// straight into its recoders and nothing is decoded (paper Sec. 2).
//
// A Fetcher is single-use and not safe for concurrent use: construct, call
// Fetch once, then optionally State.
type Fetcher struct {
	dial DialFunc
	cfg  FetcherConfig // normalized
	rng  *rand.Rand    // jitter source

	hdr    *SessionInfo
	format rlnc.RecordFormat // the current session's records
	// sink absorbs every record: cfg.Sink, or leaf (a leaf's decoders), set
	// at the first handshake. ready counts the segments at full rank in it.
	sink  Sink
	leaf  *leaf
	ready int
	stats fetcherMetrics

	// deficits and needBuf are need's scratch: the per-segment deficits and the
	// need record carrying them.
	deficits []uint32
	needBuf  []byte

	// busyHint floors the next backoff sleep at a BUSY decision's
	// retry-after.
	busyHint time.Duration

	// reconnSpan times dial-through-handshake on reconnect attempts. Started
	// in Fetch before redialing, ended in session once the handshake lands; a
	// failed attempt's span is simply dropped when the next one starts.
	reconnSpan obs.Span

	// Inherited trace context from the server's session header. Atomics: the
	// fetch loop is single-goroutine, but a relay's serving side reads these
	// concurrently (TraceContext) to parent its own spans.
	trOK    atomic.Bool
	trTrace atomic.Uint64
	trRoot  atomic.Uint64
}

// traceNode labels this fetcher's spans and flight events.
func (f *Fetcher) traceNode() string {
	if f.cfg.TraceNode != "" {
		return f.cfg.TraceNode
	}
	return "fetch"
}

// TraceContext returns the trace the upstream server declared in the latest
// traced handshake: the transfer's trace ID and the server's root span. ok is
// false until a traced session is established. Safe for concurrent use.
func (f *Fetcher) TraceContext() (trace.TraceID, trace.SpanID, bool) {
	if !f.trOK.Load() {
		return 0, 0, false
	}
	return trace.TraceID(f.trTrace.Load()), trace.SpanID(f.trRoot.Load()), true
}

// fetcherMetrics is the fetch ledger as registry-attachable counters: the
// Fetcher increments these, and FetchStats is a point-in-time view over
// them (the fetch loop is single-goroutine, but scrapes are concurrent).
type fetcherMetrics struct {
	attempts       obs.Counter
	reconnects     obs.Counter
	records        obs.Counter
	dependent      obs.Counter
	corrupt        obs.Counter
	malformed      obs.Counter
	badSegment     obs.Counter
	framingResyncs obs.Counter
	resumedRank    obs.Counter
	bytes          obs.Counter
	bytesDiscarded obs.Counter

	admissionBusy obs.Counter
}

// view snapshots the ledger as the public FetchStats shape.
func (m *fetcherMetrics) view() *FetchStats {
	return &FetchStats{
		Attempts:       int(m.attempts.Load()),
		Reconnects:     int(m.reconnects.Load()),
		Records:        int(m.records.Load()),
		Dependent:      int(m.dependent.Load()),
		Corrupt:        int(m.corrupt.Load()),
		Malformed:      int(m.malformed.Load()),
		BadSegment:     int(m.badSegment.Load()),
		FramingResyncs: int(m.framingResyncs.Load()),
		ResumedRank:    int(m.resumedRank.Load()),
		Bytes:          m.bytes.Load(),
		BytesDiscarded: m.bytesDiscarded.Load(),

		AdmissionBusy: int(m.admissionBusy.Load()),
	}
}

// register attaches the ledger to reg under prefix.
func (m *fetcherMetrics) register(reg *obs.Registry, prefix string) error {
	for _, e := range []struct {
		name, help string
		c          *obs.Counter
	}{
		{"attempts", "connection attempts, including the first", &m.attempts},
		{"reconnects", "successful handshakes after the first", &m.reconnects},
		{"records", "complete records received", &m.records},
		{"dependent", "linearly dependent blocks (innovation overhead)", &m.dependent},
		{"corrupt", "records rejected for bit damage", &m.corrupt},
		{"malformed", "checksummed records with the wrong session shape", &m.malformed},
		{"bad_segment", "checksummed records with an out-of-range segment ID", &m.badSegment},
		{"framing_resyncs", "corrupted length prefixes forcing a reconnect", &m.framingResyncs},
		{"resumed_rank", "total decoder rank carried across reconnects", &m.resumedRank},
		{"bytes", "wire bytes consumed in complete records", &m.bytes},
		{"bytes_discarded", "bytes thrown away: rejects, bad prefixes, partials", &m.bytesDiscarded},
		{"admission_busy", "handshakes answered with a BUSY admission decision", &m.admissionBusy},
	} {
		if err := reg.RegisterCounter(prefix+"."+e.name, e.help, e.c); err != nil {
			return err
		}
	}
	return nil
}

// NewFetcherFromConfig returns a Fetcher that downloads through dial, or the
// error cfg.Validate reports; see FetcherConfig for the zero-value
// semantics.
func NewFetcherFromConfig(dial DialFunc, cfg FetcherConfig) (*Fetcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newFetcher(dial, cfg), nil
}

func newFetcher(dial DialFunc, cfg FetcherConfig) *Fetcher {
	norm, rng := cfg.normalized()
	f := &Fetcher{dial: dial, cfg: norm, rng: rng}
	if norm.Metrics != nil {
		// Best-effort: a name collision (second fetcher on one registry)
		// drops the registration but never the ledger itself.
		f.stats.register(norm.Metrics, "fetch") //nolint:errcheck
	}
	return f
}

// Fetch runs the download until every segment reaches full rank, the
// attempt budget runs out, or ctx ends — a fetch's wall-clock budget is its
// context's deadline. The FetchResult is never nil and always carries the
// stats plus whatever segments and ranks were decoded, even alongside an
// error: a budget-exhausted, timed-out or cancelled fetch degrades to a
// partial result instead of discarding progress.
func (f *Fetcher) Fetch(ctx context.Context) (*FetchResult, error) {
	if f.cfg.ResumeState != nil {
		if err := f.restoreState(f.cfg.ResumeState); err != nil {
			return f.result(), err
		}
		f.cfg.ResumeState = nil
	}
	var lastErr error
	// retry drives the backoff schedule and resets whenever a session
	// absorbs at least one record: a server that streamed data and then
	// dropped us is healthy, so the next reconnect should be prompt, not
	// pay for every disconnect since the fetch began. Only consecutive
	// unproductive attempts escalate the delay. attempt keeps counting every
	// dial for the maxAttempts budget.
	retry := 0
	for attempt := 0; ; attempt++ {
		if ctx.Err() != nil {
			return f.result(), cancelErr(ctx)
		}
		if f.cfg.MaxAttempts > 0 && attempt >= f.cfg.MaxAttempts {
			return f.result(), budgetErr(attempt, lastErr)
		}
		if retry > 0 {
			if err := f.sleepBackoff(ctx, retry); err != nil {
				return f.result(), cancelErr(ctx)
			}
		}
		retry++
		f.stats.attempts.Inc()
		if f.hdr != nil {
			f.reconnSpan = stageFetchReconn.Start()
		}
		dsp := stageFetchDial.Start()
		var dtsp trace.Span
		if tr, root, ok := f.TraceContext(); ok {
			dtsp = trace.Begin(f.traceNode(), "dial", tr, root, -1)
		}
		conn, err := f.dial(ctx)
		dtsp.End()
		dsp.End()
		if err != nil {
			if ctx.Err() != nil {
				return f.result(), cancelErr(ctx)
			}
			lastErr = err
			continue
		}
		before := f.stats.records.Load()
		done, fatal, err := f.session(ctx, conn)
		if done {
			break
		}
		if fatal {
			return f.result(), err
		}
		if f.stats.records.Load() > before {
			// A productive session: the next dial should be prompt.
			retry = 0
		}
		lastErr = err
	}

	res := f.result()
	if f.cfg.Sink == nil {
		// Every segment decoded into its window: the buffer is the object,
		// padding cut off.
		n := int(f.hdr.Length)
		res.Payload = f.leaf.obj[:n:n]
	}
	return res, nil
}

// budgetErr shapes the budget-exhaustion error. A single-attempt fetch (the
// one-shot Fetch path) surfaces the session error directly so callers keep
// matching the protocol sentinels; multi-attempt fetches wrap both.
func budgetErr(attempts int, lastErr error) error {
	if attempts == 1 && lastErr != nil {
		return lastErr
	}
	if lastErr == nil {
		return fmt.Errorf("%w: %d attempts", ErrFetchBudget, attempts)
	}
	return fmt.Errorf("%w: %d attempts, last error: %w", ErrFetchBudget, attempts, lastErr)
}

func cancelErr(ctx context.Context) error {
	return fmt.Errorf("netio: fetch cancelled: %w", ctx.Err())
}

// remaining returns how many segments still lack full rank.
func (f *Fetcher) remaining() int {
	if f.hdr == nil {
		return 1
	}
	return f.hdr.Segments - f.ready
}

// totalRank sums the ranks across all segments.
func (f *Fetcher) totalRank() int {
	total := 0
	for _, r := range f.Ranks() {
		total += r
	}
	return total
}

// Stats snapshots the fetch ledger. Unlike Ranks and State it is safe to
// call concurrently with Fetch — the ledger is atomics all the way down — so
// a control plane can watch admission counters while the fetch runs.
func (f *Fetcher) Stats() *FetchStats {
	return f.stats.view()
}

// CounterKey returns the current session's key, if it is a counter session.
func (f *Fetcher) CounterKey() (key uint64, ok bool) { return f.format.Key, f.format.Counter }

// Ranks returns the current per-segment ranks — the decoders', or on a sink
// fetch the sink's for every segment above rank 0. Not safe to call
// concurrently with Fetch; a SessionHook or RecordTap may call it.
func (f *Fetcher) Ranks() map[uint32]int {
	if f.cfg.Sink == nil {
		ranks := make(map[uint32]int)
		if f.leaf != nil {
			for id, dec := range f.leaf.decs {
				ranks[id] = dec.Rank()
			}
		}
		return ranks
	}
	ranks := make(map[uint32]int)
	if f.hdr != nil {
		for seg := range uint32(f.hdr.Segments) {
			if r := f.cfg.Sink.Rank(seg); r > 0 {
				ranks[seg] = r
			}
		}
	}
	return ranks
}

// result snapshots the accumulated progress.
func (f *Fetcher) result() *FetchResult {
	res := &FetchResult{
		Segments: make(map[uint32]*rlnc.Segment),
		Ranks:    f.Ranks(),
		Stats:    f.stats.view(),
	}
	if f.hdr != nil {
		res.Mode = f.hdr.Mode
	}
	if f.leaf != nil {
		for id, dec := range f.leaf.decs {
			if seg, err := dec.Segment(); err == nil {
				res.Segments[id] = seg
			}
		}
	}
	return res
}

// session consumes one connection: handshake, then records until every
// segment is decoded or the stream fails. It reports done when the fetch is
// complete; a non-fatal error means "reconnect and continue".
func (f *Fetcher) session(ctx context.Context, conn net.Conn) (done, fatal bool, err error) {
	defer conn.Close()

	// A cancelled context forces every blocked and future read — and need
	// record write — to fail immediately by moving the deadline into the past.
	unhook := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Unix(1, 0))
	})
	defer unhook()

	// The deadline above still unblocks a read parked inside the buffered
	// reader: it is the connection's Read that fails.
	br := sessionReaders.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil)
		sessionReaders.Put(br)
	}()

	// A failure that ends the session is not fatal: a cancelled ctx ends the
	// fetch at the top of Fetch's loop, anything else costs a reconnect.
	var cs clientSession
	if err := cs.open(conn, br); err != nil {
		if d := cs.hs.dec; d != nil {
			// A structured rejection, not a stream failure: non-fatal, so the
			// retry loop keeps going, shaped by the server's own guidance.
			f.stats.admissionBusy.Inc()
			f.busyHint = d.retryAfter
		}
		return false, false, err
	}
	h, first := cs.hs.hdr, f.hdr == nil
	switch {
	case first:
		f.hdr = &h
		if f.sink = f.cfg.Sink; f.sink == nil {
			if f.leaf == nil {
				f.leaf = &leaf{decs: make(map[uint32]*rlnc.Decoder)}
			}
			f.leaf.params, f.leaf.segments = h.Params, h.Segments
			if err := f.resumeInto(); err != nil {
				return false, true, err
			}
			f.sink = f.leaf
		}
		for _, r := range f.Ranks() {
			if r == h.Params.BlockCount {
				f.ready++
			}
		}
	case h != *f.hdr:
		return false, true, fmt.Errorf("%w: had %v/%d segments/%d bytes, got %v/%d segments/%d bytes",
			ErrHeaderMismatch, f.hdr.Params, f.hdr.Segments, f.hdr.Length, h.Params, h.Segments, h.Length)
	}
	if !first {
		f.stats.reconnects.Inc()
		f.stats.resumedRank.Add(int64(f.totalRank()))
		f.reconnSpan.End()
		f.reconnSpan = obs.Span{}
		trace.Emit(trace.KindReconnect, f.traceNode(), "resumed", -1, int64(f.totalRank()))
	}
	// The records may be XNC3 counter records under the session's key: per
	// session, as a reconnect may land on a relay, or on another origin.
	f.format = rlnc.RecordFormat{Params: h.Params, Counter: cs.hs.counter(), Key: cs.hs.key}
	tctx := cs.hs.tctx
	if tctx != (traceContext{}) {
		f.trTrace.Store(uint64(tctx.trace))
		f.trRoot.Store(uint64(tctx.root))
		f.trOK.Store(true)
	}
	if f.cfg.SessionHook != nil {
		f.cfg.SessionHook(h)
	}

	// Each record is parsed where it lies in the session's reader, into one
	// CodedBlock per session whose payload views it, and absorbed — the sink
	// copies what it keeps. Framing loss or a cut stream ends the session; the
	// fetcher resynchronizes by reconnecting, keeping all rank. The server
	// sweeps a session n records of every segment and then falls silent until
	// asked: a fetch still short of rank once it has read what its last ask
	// bought (records arrived damaged, dependent, or repeating what earlier
	// sessions brought) asks again for its deficits. The grant is what the ask
	// counts down, so the count always runs out or the fetch completes, and a
	// fetch whose records raise no rank writes one need record per grant read.
	var blk rlnc.CodedBlock
	for f.remaining() > 0 {
		if cs.spent() {
			if err := cs.ask(f.need()); err != nil {
				return false, false, fmt.Errorf("%w: need record: %v", ErrStreamTruncated, err)
			}
		}
		rec, wire, err := cs.next()
		if err != nil {
			if cs.lost {
				f.stats.framingResyncs.Inc()
			}
			f.stats.bytesDiscarded.Add(int64(wire))
			return false, false, err
		}
		f.stats.records.Inc()
		f.stats.bytes.Add(int64(wire))
		asp := stageFetchDecode.Start()
		err = f.absorb(&blk, rec, tctx)
		if tctx.trace != 0 {
			asp.EndTraced(uint64(tctx.trace), uint64(tctx.root))
		} else {
			asp.End()
		}
		if err != nil {
			return false, true, err
		}
	}
	return true, false, nil
}

// need lays out the need record carrying every segment's rank deficit and
// returns it with the grant it buys — deficit plus margin for every short
// segment: the records the next ask waits for.
func (f *Fetcher) need() ([]byte, int) {
	n, margin := f.hdr.Params.BlockCount, grantMargin(f.hdr.Mode)
	f.deficits = f.deficits[:0]
	sum := 0
	for seg := range uint32(f.hdr.Segments) {
		d := n - f.sink.Rank(seg)
		f.deficits = append(f.deficits, uint32(d))
		if d > 0 {
			sum += d + margin
		}
	}
	f.needBuf = appendNeed(f.needBuf[:0], f.deficits)
	return f.needBuf, sum
}

// absorb parses one record of the session's format into blk, in place — blk's
// payload views rec — and feeds it to the sink, classifying rejects: Corrupt
// (bit damage caught by magic or checksum), Malformed (checksummed but the
// wrong shape for the session — a server bug, not line noise), BadSegment
// (checksummed but an out-of-range segment ID — rejected before it can reach
// the sink). Only a sink failure is an error. The record tap runs last, on every record the sink
// was offered. On a traced session tctx is the trace context its header
// declared: the absorb span parents under the server's root span, and counts
// toward the generation (trace, the record's segment).
func (f *Fetcher) absorb(blk *rlnc.CodedBlock, rec []byte, tctx traceContext) error {
	discard := func() { f.stats.bytesDiscarded.Add(int64(len(rec)) + 4) }
	// On a counter session the vector is regenerated into blk, and a record
	// of another shape is refused before it can size one.
	if err := blk.ParseView(rec, f.format); err != nil {
		if errors.Is(err, rlnc.ErrBadChecksum) || errors.Is(err, rlnc.ErrBadMagic) {
			f.stats.corrupt.Inc()
		} else {
			f.stats.malformed.Inc()
		}
		discard()
		return nil
	}
	if blk.SegmentID >= uint32(f.hdr.Segments) {
		f.stats.badSegment.Inc()
		discard()
		return nil
	}
	// A record for a segment already at full rank is overshoot, not a
	// dependent record, and opens no absorb span.
	n := f.hdr.Params.BlockCount
	before := f.sink.Rank(blk.SegmentID)
	var sp trace.Span
	if tctx.trace != 0 && before < n {
		sp = trace.Begin(f.traceNode(), "absorb", tctx.trace, tctx.root, int32(blk.SegmentID))
	}
	innovative, err := f.sink.Absorb(blk, rec)
	sp.End()
	if err != nil {
		return err
	}
	switch {
	case innovative && before+1 == n:
		f.ready++
		trace.Emit(trace.KindRank, f.traceNode(), "segment_ready", int32(blk.SegmentID), int64(n))
	case !innovative && before < n:
		f.stats.dependent.Inc()
	}
	if f.cfg.RecordTap != nil {
		f.cfg.RecordTap(blk)
	}
	return nil
}

// backoffJitter is the fraction of itself a backoff delay is jittered by,
// either way.
const backoffJitter = 0.5

// sleepBackoff waits out the backoff before retry r (1-based), returning
// early with the context error if ctx ends mid-backoff. A pending BUSY
// retry-after hint floors the delay once and is then consumed.
func (f *Fetcher) sleepBackoff(ctx context.Context, retry int) error {
	d := backoffDelay(retry, f.cfg.BackoffBase, f.cfg.BackoffMax, backoffJitter, f.rng)
	if hint := f.busyHint; hint > 0 {
		f.busyHint = 0
		if hint > d {
			d = hint
		}
	}
	if d <= 0 {
		return ctx.Err()
	}
	defer stageFetchBackoff.Start().End()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// backoffDelay computes the delay before retry r (1-based): base doubled
// r−1 times, capped at max, then jittered uniformly over ±jitter·delay and
// re-capped. A non-positive base disables backoff entirely.
func backoffDelay(retry int, base, max time.Duration, jitter float64, rng *rand.Rand) time.Duration {
	if base <= 0 {
		return 0
	}
	if max < base {
		max = base
	}
	d := base
	for i := 1; i < retry; i++ {
		if d >= max/2 {
			d = max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	if jitter > 0 {
		span := jitter * float64(d)
		d = time.Duration(float64(d) - span + 2*span*rng.Float64())
		if d < 0 {
			d = 0
		}
		if d > max {
			d = max
		}
	}
	return d
}

// Fetch-state blob: a control record (control.go) with magic "XNCF" and body
// u32 version | u32 entry count | per entry, in ascending segment ID:
// u32 segment ID, u32 length, Decoder.MarshalBinary bytes.
const (
	stateMagic   = "XNCF"
	stateVersion = 2
)

// State serializes every segment decoder — partial and complete — so a
// later Fetcher (even in a new process) can resume this fetch's rank with
// FetcherConfig.ResumeState. The same progress always serializes to the same
// bytes. A sink fetch has no decoders and is refused. Not safe to call
// concurrently with Fetch.
func (f *Fetcher) State() ([]byte, error) {
	if f.cfg.Sink != nil {
		return nil, errSinkState
	}
	var decs map[uint32]*rlnc.Decoder
	if f.leaf != nil {
		decs = f.leaf.decs
	}
	ids := slices.Sorted(maps.Keys(decs))
	body := binary.BigEndian.AppendUint32(nil, stateVersion)
	body = binary.BigEndian.AppendUint32(body, uint32(len(ids)))
	for _, id := range ids {
		dec, err := decs[id].MarshalBinary()
		if err != nil {
			return nil, err
		}
		body = binary.BigEndian.AppendUint32(body, id)
		body = binary.BigEndian.AppendUint32(body, uint32(len(dec)))
		body = append(body, dec...)
	}
	return appendControl(nil, stateMagic, body), nil
}

// restoreState rebuilds the decoder map from a State blob. The header is
// not known yet, so cross-checks against the session, and the decoders' move
// into the object buffer, happen at the first handshake (resumeInto).
func (f *Fetcher) restoreState(data []byte) error {
	rd := bytes.NewReader(data)
	magic, body, err := readControl(rd, make([]byte, max(len(data), controlOverhead)))
	switch {
	case err != nil:
		return fmt.Errorf("%w: %v", ErrBadResumeState, err)
	case magic != stateMagic:
		return fmt.Errorf("%w: magic %q", ErrBadResumeState, magic)
	case rd.Len() != 0:
		return fmt.Errorf("%w: %d trailing bytes", ErrBadResumeState, rd.Len())
	case len(body) < 8:
		return fmt.Errorf("%w: %d-byte body", ErrBadResumeState, len(body))
	}
	if v := binary.BigEndian.Uint32(body); v != stateVersion {
		return fmt.Errorf("%w: version %d", ErrBadResumeState, v)
	}
	count := int(binary.BigEndian.Uint32(body[4:]))
	// Every entry takes at least 8 bytes: the count cannot size the map.
	decs := make(map[uint32]*rlnc.Decoder, min(count, len(body)/8))
	off := 8
	for i := 0; i < count; i++ {
		if off+8 > len(body) {
			return fmt.Errorf("%w: truncated entry %d", ErrBadResumeState, i)
		}
		id := binary.BigEndian.Uint32(body[off:])
		n := int(binary.BigEndian.Uint32(body[off+4:]))
		off += 8
		if n < 0 || off+n > len(body) {
			return fmt.Errorf("%w: entry %d overruns", ErrBadResumeState, i)
		}
		dec := new(rlnc.Decoder)
		if err := dec.UnmarshalBinary(body[off : off+n]); err != nil {
			return fmt.Errorf("%w: segment %d: %v", ErrBadResumeState, id, err)
		}
		if _, dup := decs[id]; dup {
			return fmt.Errorf("%w: duplicate segment %d", ErrBadResumeState, id)
		}
		decs[id] = dec
		off += n
	}
	if off != len(body) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadResumeState, len(body)-off)
	}
	f.leaf = &leaf{decs: decs}
	return nil
}

// resumeInto cross-checks restored decoders against the first session header
// — resumed rank must belong to the object actually being served — and then
// moves each into its window of the object buffer, which a resumed fetch
// allocates here. A fetch that restored nothing allocates nothing.
func (f *Fetcher) resumeInto() error {
	for id, dec := range f.leaf.decs {
		if dec.Params() != f.hdr.Params {
			return fmt.Errorf("%w: segment %d resumed with %v, server serves %v",
				ErrBadResumeState, id, dec.Params(), f.hdr.Params)
		}
		if id >= uint32(f.hdr.Segments) {
			return fmt.Errorf("%w: resumed segment %d out of range (%d segments)",
				ErrBadResumeState, id, f.hdr.Segments)
		}
	}
	for id, dec := range f.leaf.decs {
		if err := f.leaf.bind(id, dec); err != nil {
			return err
		}
	}
	return nil
}
