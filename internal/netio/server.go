package netio

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

// Serving-stage spans. Free when no obs sink is installed; with one, each
// records a latency sample per operation (not per byte): one handshake span
// per session, one queue-offer span per pump round, one record-send span per
// vectored wire flush.
var (
	stageHandshake  = obs.StageOf("netio.handshake")
	stageQueueOffer = obs.StageOf("netio.queue_offer")
	stageRecordSend = obs.StageOf("netio.record_send")
)

// Serving errors.
var (
	// ErrServerClosed reports an operation on a server after Shutdown.
	ErrServerClosed = errors.New("netio: server closed")
	// ErrShortWrite reports a record write that could not be completed
	// within the session's deadline budget.
	ErrShortWrite = errors.New("netio: short record write")
)

// writerBatch caps how many queued records one vectored flush covers.
const writerBatch = 16

// Server pushes coded blocks for one object to every connection. Sessions
// are partitioned across one or more encoder-pump shards: each shard owns a
// record source, a pump goroutine, and its sessions' queues, and new
// sessions join the least-loaded shard. Within a shard the pump frames each
// record once and fans the same refcounted buffer out to every session's
// bounded queue without blocking; a full queue sheds the record for that
// session only, and per-connection write deadlines with retry-then-drop
// semantics bound the cost of a stuck peer. Metrics accumulate both in the
// aggregate counters and per shard, exposed via Snapshot.
//
// A media-backed ModeDense server sends XNC3 counter records: each carries a
// record index instead of its coefficient vector, which the client derives
// from the index and the key in the session header (hsFlagCounter).
//
// A media-backed ModeSystematic server does not push its source blocks. Each
// session moves through three states on its own goroutine: sweep — it writes
// every source block of the object once, from a table of framed records all
// sessions share, as fast as its connection takes them, through no queue;
// wait — it blocks in one read, which ends when the peer hangs up (it decoded
// from the sweep: the common case, and the pump never woke), sends a need
// record, sends anything else, or outlasts the write-deadline budget; repair
// — only a session that sent the need record joins the pump's fan-out above,
// whose source emits XOR repair and dense blocks. The session is in its
// shard's set from the handshake on, so the session cap, Snapshot, Drain and
// Shutdown see it in every state.
type Server struct {
	cfg  ServerConfig // normalized
	info SessionInfo

	frames *framePool
	shards []*pumpShard
	sweep  *sweepTable // media-backed ModeSystematic only; shared by every shard

	// counter marks a media-backed ModeDense server: its records are XNC3
	// counter records under key, which every session header declares.
	counter bool
	key     uint64

	counters         Counters
	sessionsTotal    obs.Counter
	sessionsRejected obs.Counter
	needRecords      obs.Counter  // sessions that asked for repair after their sweep
	sessionSecs      atomic.Int64 // summed finished-session durations, in ns

	// Admission and degradation surface: decisions written to rejected
	// connections, the brownout ladder position, and the sources that can
	// thin their schedule at BrownoutLean.
	admissionBusy       obs.Counter
	admissionRedirected obs.Counter
	brownoutRung        atomic.Int32 // BrownoutRung, written by the controller
	brownoutTransitions obs.Counter
	degradable          []DegradableSource

	mu        sync.Mutex
	joined    int // sessions currently past handshake, across all shards
	closed    bool
	draining  bool
	drainAddr string        // REDIRECT target while draining ("" → BUSY)
	drainDone chan struct{} // closed when the active Drain finishes
	listeners map[net.Listener]struct{}
	nextID    int64

	stop     chan struct{} // closed by Shutdown
	pumpOnce sync.Once
	pumpWG   sync.WaitGroup
	wg       sync.WaitGroup // session goroutines
	auxWG    sync.WaitGroup // decision-writer goroutines

	// Distributed tracing (tracectx.go). traced is latched at construction —
	// cfg.TraceNode set AND the process-global recorder enabled — so every
	// session of one server negotiates the same framing. rootSpan opens at
	// construction and closes in Shutdown; pump rounds and flushes parent
	// under it, and its (traceID, ID) pair is the trace context every
	// client's session header carries.
	traced   bool
	traceID  trace.TraceID
	rootSpan trace.Span
}

// pumpShard is one encoder pump and the sessions it feeds. Every shard runs
// the same loop as the original single shared pump; sharding multiplies the
// number of independent fan-out loops, and the per-shard counters make the
// offered == sent + shed ledger checkable shard by shard.
type pumpShard struct {
	id  int
	s   *Server
	src RecordSource

	// laid is the frames whose buffers alloc has handed the source this round,
	// in order; wrap matches the records the source returns against it.
	laid []*frameRef

	mu       sync.Mutex
	sessions map[*session]struct{}

	wake     chan struct{} // a session arrived
	consumed chan struct{} // a session drained a record

	c shardCounters
}

// shardCounters is a shard's slice of the traffic ledger, kept as plain
// atomics (the obs-registered aggregate counters stay server-wide so metric
// cardinality does not scale with the shard count).
type shardCounters struct {
	encoded, offered, sent, shed, bytes atomic.Int64
	stallNs, maxStallNs                 atomic.Int64
}

func (c *shardCounters) addStall(d time.Duration) {
	ns := d.Nanoseconds()
	c.stallNs.Add(ns)
	for {
		cur := c.maxStallNs.Load()
		if ns <= cur || c.maxStallNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

func (c *shardCounters) view() CounterView {
	return CounterView{
		BlocksEncoded:  c.encoded.Load(),
		BlocksOffered:  c.offered.Load(),
		BlocksSent:     c.sent.Load(),
		BlocksShed:     c.shed.Load(),
		BytesSent:      c.bytes.Load(),
		EncodeStall:    time.Duration(c.stallNs.Load()),
		MaxEncodeStall: time.Duration(c.maxStallNs.Load()),
	}
}

// NewServerFromConfig builds a media-backed server over media split at p:
// the server encodes fresh coded blocks from the source segments. See
// ServerConfig for the zero-value semantics.
func NewServerFromConfig(media []byte, p rlnc.Params, cfg ServerConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	obj, err := rlnc.Split(media, p)
	if err != nil {
		return nil, err
	}
	cfg = cfg.normalized(p.BlockCount)
	// The dense shards share one key and one record index per segment, so no
	// two of them ever frame the same (segment, index): a record is unique
	// server-wide until a segment has sent 2^32 of them.
	key := uint64(cfg.Seed)
	next := make([]atomic.Uint32, len(obj.Segments))
	srcs := make([]RecordSource, cfg.PumpShards)
	for i := range srcs {
		if cfg.Mode == ModeSystematic {
			srcs[i] = newSystematicSource(obj, shardSeed(cfg.Seed, i))
			continue
		}
		penc, err := rlnc.NewParallelEncoder(cfg.EncoderWorkers, rlnc.FullBlock)
		if err != nil {
			return nil, err
		}
		srcs[i] = &counterSource{obj: obj, key: key, next: next, penc: penc}
	}
	s, err := newServer(srcs[0].Info(), cfg, srcs)
	if err != nil {
		return nil, err
	}
	if cfg.Mode == ModeSystematic {
		s.sweep = newSweepTable(obj)
	} else {
		s.counter, s.key = true, key
	}
	return s, nil
}

// NewSourceServerFromConfig builds a server over an arbitrary RecordSource:
// the serving half of a mesh relay, which recodes upstream blocks instead of
// encoding source media it does not have. The session machinery — pump
// fan-out, bounded queues with shed-don't-stall, write deadlines, session
// caps, metrics — is identical to a media-backed server; only where records
// come from differs. The handshake is declared by src.Info(), so cfg.Mode is
// ignored here; cfg.EncodeBatch sizes the per-round Records request. A source
// is one stream of records, so such a server runs one pump: PumpShards > 1 is
// refused.
func NewSourceServerFromConfig(src RecordSource, cfg ServerConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.PumpShards > 1 {
		return nil, fmt.Errorf("netio: %d pump shards: source-backed servers run one pump", cfg.PumpShards)
	}
	info := src.Info()
	if err := info.Validate(); err != nil {
		return nil, fmt.Errorf("netio: bad source session info: %w", err)
	}
	cfg = cfg.normalized(info.Params.BlockCount)
	cfg.Mode = info.Mode
	return newServer(info, cfg, []RecordSource{src})
}

// shardSeed derives shard i's coefficient-stream seed. Shard 0 keeps the
// base seed unchanged.
func shardSeed(seed int64, i int) int64 {
	const lane = int64(0x5851F42D4C957F2D) // odd multiplier: distinct lanes per shard
	return seed + int64(i)*lane
}

// newServer builds the server over one source per pump shard.
func newServer(info SessionInfo, cfg ServerConfig, srcs []RecordSource) (*Server, error) {
	s := &Server{
		cfg:       cfg,
		info:      info,
		frames:    &framePool{},
		stop:      make(chan struct{}),
		listeners: make(map[net.Listener]struct{}),
	}
	s.shards = make([]*pumpShard, len(srcs))
	for i, src := range srcs {
		s.shards[i] = &pumpShard{
			id:       i,
			s:        s,
			src:      src,
			sessions: make(map[*session]struct{}),
			wake:     make(chan struct{}, 1),
			consumed: make(chan struct{}, 1),
		}
		if deg, ok := src.(DegradableSource); ok {
			s.degradable = append(s.degradable, deg)
		}
	}
	if cfg.Metrics != nil {
		if err := s.registerMetrics(cfg.Metrics); err != nil {
			return nil, err
		}
	}
	if cfg.TraceNode != "" && trace.Enabled() {
		s.traced = true
		s.traceID = cfg.TraceID
		if s.traceID == 0 {
			s.traceID = trace.NewTrace()
		}
		s.rootSpan = trace.Begin(cfg.TraceNode, "serve", s.traceID, cfg.TraceParent, -1)
	}
	return s, nil
}

// registerMetrics attaches the server's observability surface to reg: the
// shared traffic counters plus the session ledger, all under the "netio"
// prefix.
func (s *Server) registerMetrics(reg *obs.Registry) error {
	if err := s.counters.Register(reg, "netio"); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.sessions_total",
		"sessions accepted since start", &s.sessionsTotal); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.sessions_rejected",
		"connections refused by the session cap or brownout", &s.sessionsRejected); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.need_records",
		"systematic sessions that asked for repair after their sweep: the leaves that saw loss", &s.needRecords); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.admission_busy",
		"BUSY admission decisions written to new connections", &s.admissionBusy); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.admission_redirected",
		"REDIRECT admission decisions written to new connections", &s.admissionRedirected); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.brownout_transitions",
		"brownout ladder rung changes, both directions", &s.brownoutTransitions); err != nil {
		return err
	}
	if err := reg.RegisterFunc("netio.brownout_rung",
		"current brownout ladder rung (0 off, 1 paced, 2 lean, 3 reject)", func() float64 {
			return float64(s.brownoutRung.Load())
		}); err != nil {
		return err
	}
	if err := reg.RegisterFunc("netio.sessions_live",
		"sessions currently connected", func() float64 {
			s.mu.Lock()
			n := s.joined
			s.mu.Unlock()
			return float64(n)
		}); err != nil {
		return err
	}
	if err := reg.RegisterFunc("netio.pump_shards",
		"independent encoder pumps serving sessions", func() float64 {
			return float64(len(s.shards))
		}); err != nil {
		return err
	}
	return reg.RegisterFunc("netio.session_seconds",
		"summed wall-clock duration of finished sessions", func() float64 {
			return time.Duration(s.sessionSecs.Load()).Seconds()
		})
}

// Segments returns the number of media segments served.
func (s *Server) Segments() int { return s.info.Segments }

// Mode returns the session coding discipline the server declares in every
// handshake.
func (s *Server) Mode() WireMode { return s.info.Mode }

// Info returns the session handshake the server declares.
func (s *Server) Info() SessionInfo { return s.info }

// Shards returns the number of encoder-pump shards.
func (s *Server) Shards() int { return len(s.shards) }

// session is one connected client.
type session struct {
	id      int64
	conn    net.Conn
	shard   *pumpShard // set at join; nil for sessions that never joined
	q       *frameQueue
	started time.Time

	offered atomic.Int64
	sent    atomic.Int64
	shed    atomic.Int64
	bytes   atomic.Int64

	// pumped marks a session the shard's pump feeds: every session of a
	// pushing server from the moment it joins, a sweep session only once it
	// has asked for repair.
	pumped atomic.Bool

	stop chan struct{} // closed on server shutdown
}

// Serve accepts connections from l until ctx is cancelled, the listener
// fails, or the server is shut down. Every accepted connection becomes a
// session fed from a shard's encoder pump. It returns nil after a clean
// Shutdown and ctx.Err() after cancellation (which also shuts the server
// down).
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	// Register the listener so Shutdown (and therefore Drain) can unblock
	// the accept loop; the historical contract that the caller also closes
	// the listener still holds — a double close is harmless.
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	s.startPumps()

	unhook := context.AfterFunc(ctx, func() { l.Close() })
	defer unhook()

	for {
		conn, err := l.Accept()
		if err != nil {
			if ctx.Err() != nil {
				s.Shutdown()
				return ctx.Err()
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		if !s.startSession(conn) {
			conn.Close()
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			// Unreachable today (every live-server reject writes a
			// decision instead), kept as the accept-loop backstop.
		}
	}
}

// startSession decides admission for conn: an admitted connection gets a
// session goroutine; a rejected one (session cap, brownout shed, drain) gets
// a short-lived decision writer that answers BUSY or REDIRECT and closes it.
// It reports false only when the server is closed — the caller then owns the
// connection.
func (s *Server) startSession(conn net.Conn) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if s.draining {
		d := admissionDecision{code: admissionRedirect, addr: s.drainAddr}
		if d.addr == "" {
			d = admissionDecision{code: admissionBusy, retryAfter: s.cfg.RetryAfter}
		}
		s.rejectSession(conn, d)
		return true
	}
	atCap := s.cfg.MaxSessions > 0 && s.joined >= s.cfg.MaxSessions
	if atCap || BrownoutRung(s.brownoutRung.Load()) >= BrownoutReject {
		s.sessionsRejected.Add(1)
		s.rejectSession(conn, admissionDecision{code: admissionBusy, retryAfter: s.cfg.RetryAfter})
		return true
	}
	s.nextID++
	ss := &session{
		id:      s.nextID,
		conn:    conn,
		q:       newFrameQueue(s.cfg.QueueDepth),
		started: time.Now(),
		stop:    s.stop,
	}
	s.wg.Add(1)
	s.mu.Unlock()

	s.sessionsTotal.Add(1)
	trace.Emit(trace.KindAdmission, s.traceNodeName(), "accept", -1, ss.id)
	go s.runSession(ss)
	return true
}

// traceNodeName labels flight-recorder events from this server even when the
// session framing is untraced.
func (s *Server) traceNodeName() string {
	if s.cfg.TraceNode != "" {
		return s.cfg.TraceNode
	}
	return "netio"
}

// rejectSession hands conn to a decision-writer goroutine and releases s.mu,
// which the caller must hold: the auxWG.Add has to be ordered before
// Shutdown's closed flip (also under s.mu) so Shutdown's auxWG.Wait covers
// every writer.
func (s *Server) rejectSession(conn net.Conn, d admissionDecision) {
	switch d.code {
	case admissionBusy:
		s.admissionBusy.Add(1)
		trace.Emit(trace.KindAdmission, s.traceNodeName(), "busy", -1, d.retryAfter.Milliseconds())
	case admissionRedirect:
		s.admissionRedirected.Add(1)
		trace.Emit(trace.KindAdmission, s.traceNodeName(), "redirect:"+d.addr, -1, 0)
	}
	s.auxWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.auxWG.Done()
		defer conn.Close()
		if s.cfg.WriteDeadline > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteDeadline))
		}
		if rec, err := appendDecision(nil, d); err == nil {
			conn.Write(rec) //nolint:errcheck — best effort; the peer may already be gone
		}
	}()
}

// runSession writes the handshake, joins the least-loaded shard's session
// set, and streams records — the sweep first on a sweep server, then, for a
// session the pump feeds, whatever the pump queues — until the peer hangs up,
// a write fails its deadline budget, or the server shuts down.
func (s *Server) runSession(ss *session) {
	defer s.wg.Done()
	defer ss.conn.Close()

	hs := handshake{hdr: s.info.header(), key: s.key}
	if s.traced {
		hs.flags |= hsFlagTrace
		hs.tctx = traceContext{trace: s.traceID, root: s.rootSpan.ID()}
	}
	if s.sweep != nil {
		hs.flags |= hsFlagSweep
	}
	if s.counter {
		hs.flags |= hsFlagCounter
	}
	buf := appendSessionHeader(nil, hs)
	// The handshake gets one deadline window and no retry: a peer that
	// connects and never reads must not pin the session goroutine.
	if s.cfg.WriteDeadline > 0 {
		ss.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteDeadline))
	}
	hsp := stageHandshake.Start()
	_, err := ss.conn.Write(buf)
	hsp.End()
	if err == nil {
		s.mu.Lock()
		joined := !s.closed
		if joined {
			sh := s.leastLoadedShard()
			ss.shard = sh
			ss.pumped.Store(s.sweep == nil)
			sh.mu.Lock()
			sh.sessions[ss] = struct{}{}
			sh.mu.Unlock()
			s.joined++
		}
		s.mu.Unlock()
		if joined {
			if s.sweep == nil || s.sweepSession(ss) {
				ss.shard.signalWake()
				s.writeLoop(ss)
			}
			s.mu.Lock()
			ss.shard.mu.Lock()
			delete(ss.shard.sessions, ss)
			ss.shard.mu.Unlock()
			s.joined--
			s.mu.Unlock()
		}
	}
	s.shedResidue(ss)
	s.sessionSecs.Add(int64(time.Since(ss.started)))
}

// sweepStart is where session id's sweep begins in the flattened (segment,
// block) index of total records: frac(id·φ)·total, φ the golden ratio.
// Successive sessions start as far from all earlier ones as any fixed rule
// can put them, so a client whose sessions are cut short — a lossy link resets
// long before a sweep ends — still covers the object across its reconnects
// without telling the server what it holds. (A start at zero re-reads the
// object's first blocks forever; a server-wide cursor wraps to where it
// began, because a small sweep vanishes whole into the socket buffer.)
func sweepStart(id int64, total int) int {
	const fracPhi = 0x9E3779B97F4A7C15 // 2^64·(φ−1)
	hi, _ := bits.Mul64(uint64(id)*fracPhi, uint64(total))
	return int(hi)
}

// sweepSession runs the sweep and wait states of a systematic session and
// reports whether the peer asked for repair, in which case the session is the
// pump's from here on. Nothing is read during the sweep, so what a peer writes
// meanwhile costs nothing. The wait is a single read of at most one need
// record under a deadline of the whole write budget: end of stream is a peer
// that has what it came for, and anything but a need record — garbage, a
// flood, silence — ends the session.
func (s *Server) sweepSession(ss *session) (repair bool) {
	if s.writeSweep(ss) != nil {
		return false
	}
	if s.cfg.WriteDeadline > 0 {
		ss.conn.SetReadDeadline(time.Now().Add(s.cfg.WriteDeadline * time.Duration(1+s.cfg.WriteRetries)))
	}
	if readNeedRecord(ss.conn) != nil {
		return false
	}
	s.needRecords.Inc()
	ss.pumped.Store(true)
	return true
}

// writeSweep writes the shared table's records straight to the connection, at
// most writerBatch per vectored write, under the same deadline, retry and
// short-write rules as any flush. Every record is offered, and then sent or
// shed, in the session's ledger; none is encoded — that counter is the pump's.
func (s *Server) writeSweep(ss *session) error {
	total := len(s.sweep.records)
	n := s.info.Params.BlockCount
	start := sweepStart(ss.id, total)
	// Private headers over the shared records, so the batch goes through the
	// same flush as a queued one; nothing retains or releases them.
	var refs [writerBatch]frameRef
	batch := make([]*frameRef, 0, writerBatch)
	bufs := make(net.Buffers, 0, 2*writerBatch)
	var preludes []byte
	var sp trace.Span
	if s.traced {
		preludes = make([]byte, writerBatch*recordPreludeLen)
		sp = trace.Begin(s.cfg.TraceNode, "sweep", s.traceID, s.rootSpan.ID(), -1)
		defer sp.End()
	}
	for done := 0; done < total; done += len(batch) {
		batch = batch[:min(writerBatch, total-done)]
		for i := range batch {
			idx := (start + done + i) % total
			refs[i].buf = s.sweep.record(idx)
			refs[i].round = uint64(sp.ID())
			refs[i].seg = int32(idx / n)
			batch[i] = &refs[i]
		}
		offered := int64(len(batch))
		ss.offered.Add(offered)
		s.counters.AddOffered(offered)
		ss.shard.c.offered.Add(offered)
		if err := s.flush(ss, batch, &bufs, preludes); err != nil {
			return err
		}
	}
	return nil
}

// leastLoadedShard picks the shard with the fewest sessions (ties go to the
// lowest id). Called with s.mu held.
func (s *Server) leastLoadedShard() *pumpShard {
	best := s.shards[0]
	if len(s.shards) == 1 {
		return best
	}
	best.mu.Lock()
	bestN := len(best.sessions)
	best.mu.Unlock()
	for _, sh := range s.shards[1:] {
		sh.mu.Lock()
		n := len(sh.sessions)
		sh.mu.Unlock()
		if n < bestN {
			best, bestN = sh, n
		}
	}
	return best
}

// shedResidue empties the session queue at teardown, shedding and releasing
// whatever never reached the wire so offered == sent + shed holds exactly.
func (s *Server) shedResidue(ss *session) {
	rest := ss.q.drain()
	if len(rest) == 0 {
		return
	}
	n := int64(len(rest))
	ss.shed.Add(n)
	s.counters.AddShed(n)
	if ss.shard != nil {
		ss.shard.c.shed.Add(n)
	}
	trace.Emit(trace.KindShed, s.traceNodeName(), "teardown", -1, n)
	for _, fr := range rest {
		fr.release()
	}
}

// writeLoop drains the session queue onto the connection, flushing up to
// writerBatch records per vectored write.
func (s *Server) writeLoop(ss *session) {
	batchCap := min(writerBatch, s.cfg.QueueDepth)
	batch := make([]*frameRef, batchCap)
	// Traced sessions interleave a 12-byte prelude buffer before every frame
	// in the vectored write, so bufs holds two entries per record.
	bufs := make(net.Buffers, 0, 2*batchCap)
	var preludes []byte
	if s.traced {
		preludes = make([]byte, batchCap*recordPreludeLen)
	}
	for {
		n := ss.q.popBatch(batch)
		if n == 0 {
			select {
			case <-ss.q.bell:
				continue
			case <-ss.stop:
				return
			}
		}
		ss.shard.signalConsumed()
		err := s.flush(ss, batch[:n], &bufs, preludes)
		for i := 0; i < n; i++ {
			batch[i].release()
			batch[i] = nil
		}
		if err != nil {
			return
		}
	}
}

// flush writes batch to the session's connection and settles the ledger for
// it: what reached the wire whole is sent, the rest — on a failed write — is
// shed.
func (s *Server) flush(ss *session, batch []*frameRef, bufs *net.Buffers, preludes []byte) error {
	wsp := stageRecordSend.Start()
	var fsp trace.Span
	if s.traced {
		// The flush span parents under the first frame's round — batches
		// usually drain in round order, so the attribution error is at
		// most one round boundary per flush.
		fsp = trace.Begin(s.cfg.TraceNode, "flush", s.traceID, trace.SpanID(batch[0].round), batch[0].seg)
	}
	sentN, sentBytes, err := s.writeFrames(ss, batch, bufs, preludes)
	fsp.End()
	if s.traced {
		wsp.EndTraced(uint64(s.traceID), uint64(fsp.ID()))
	} else {
		wsp.End()
	}
	if sentN > 0 {
		ss.sent.Add(int64(sentN))
		ss.bytes.Add(sentBytes)
		s.counters.AddSent(int64(sentN), sentBytes)
		ss.shard.c.sent.Add(int64(sentN))
		ss.shard.c.bytes.Add(sentBytes)
	}
	if dropped := int64(len(batch) - sentN); dropped > 0 {
		ss.shed.Add(dropped)
		s.counters.AddShed(dropped)
		ss.shard.c.shed.Add(dropped)
		trace.Emit(trace.KindShed, s.traceNodeName(), "write_failed", -1, dropped)
	}
	return err
}

// writeFrames flushes frs in one vectored write (TCP connections use a
// single writev per attempt) under the session's write deadline, resuming
// partial writes. A flush that times out gets WriteRetries extra deadline
// windows (retry-then-drop); any other error, or exhausting the budget,
// fails the session. It returns how many frames were fully written and
// their byte count — on failure the remainder is the caller's to shed.
func (s *Server) writeFrames(ss *session, frs []*frameRef, scratch *net.Buffers, preludes []byte) (int, int64, error) {
	bufs := (*scratch)[:0]
	total := 0
	preludeLen := 0
	if s.traced {
		preludeLen = recordPreludeLen
	}
	for i, fr := range frs {
		if preludeLen > 0 {
			p := preludes[i*recordPreludeLen : (i+1)*recordPreludeLen]
			putRecordPrelude(p, trace.SpanID(fr.round))
			bufs = append(bufs, p)
		}
		bufs = append(bufs, fr.buf)
		total += preludeLen + len(fr.buf)
	}
	// Written through the caller's header (a local one would escape on every
	// flush), which WriteTo consumes: hand the backing array back.
	*scratch = bufs
	defer func() { *scratch = bufs[:0] }()
	written := 0
	retries := s.cfg.WriteRetries
	for written < total {
		if s.cfg.WriteDeadline > 0 {
			ss.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteDeadline))
		}
		n, err := scratch.WriteTo(ss.conn)
		written += int(n)
		if err == nil {
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && retries > 0 {
			retries--
			continue
		}
		sentN, sentBytes, partial := framesDone(frs, written, preludeLen)
		if partial {
			err = fmt.Errorf("%w: %d of %d bytes: %v", ErrShortWrite, written, total, err)
		}
		return sentN, sentBytes, err
	}
	return len(frs), int64(total), nil
}

// framesDone maps a written byte count onto the frame sequence: how many
// frames the bytes fully cover, their summed wire length (preludes included),
// and whether the count ends inside a frame.
func framesDone(frs []*frameRef, written, preludeLen int) (int, int64, bool) {
	var k int
	var bytes int64
	for _, fr := range frs {
		l := preludeLen + len(fr.buf)
		if written < l {
			return k, bytes, written > 0
		}
		k++
		bytes += int64(l)
		written -= l
	}
	return k, bytes, false
}

func (sh *pumpShard) signalWake() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

func (sh *pumpShard) signalConsumed() {
	select {
	case sh.consumed <- struct{}{}:
	default:
	}
}

func (s *Server) startPumps() {
	s.pumpOnce.Do(func() {
		for _, sh := range s.shards {
			s.pumpWG.Add(1)
			go sh.run()
		}
		if s.cfg.Brownout.Interval > 0 {
			s.pumpWG.Add(1)
			go s.runBrownout()
		}
	})
}

// effectivePace is the pump-round floor after brownout: the configured Pace,
// raised to the brownout PacedDelay from BrownoutPaced up.
func (s *Server) effectivePace() time.Duration {
	pace := s.cfg.Pace
	if BrownoutRung(s.brownoutRung.Load()) >= BrownoutPaced && s.cfg.Brownout.PacedDelay > pace {
		pace = s.cfg.Brownout.PacedDelay
	}
	return pace
}

// run is one shard's record loop: it pulls a batch from the shard's source
// for each segment in turn and fans the framed records out to the queue of
// every shard session it feeds (on a sweep server, the ones that asked for
// repair) without ever blocking on a client. When no session can take a
// block (every queue full) the pump parks briefly and the wait is charged to
// the encode-stall counters; when there is no session to feed it sleeps until
// one arrives, with nothing charged. A dry source (a relay
// whose recoders have no rank yet) parks the pump briefly without charging
// a stall.
func (sh *pumpShard) run() {
	s := sh.s
	defer s.pumpWG.Done()
	segments := sh.src.Info().Segments
	segIdx := sh.id % segments // stagger shards across segments
	live := make([]*session, 0, 16)
	frames := make([]*frameRef, 0, s.cfg.EncodeBatch)
	alloc := sh.alloc // bound once: evaluating a method value allocates
	for {
		select {
		case <-s.stop:
			return
		default:
		}

		sh.mu.Lock()
		live = live[:0]
		for ss := range sh.sessions {
			if ss.pumped.Load() {
				live = append(live, ss)
			}
		}
		sh.mu.Unlock()
		if len(live) == 0 {
			select {
			case <-sh.wake:
			case <-s.stop:
				return
			}
			continue
		}

		// A traced pump opens a round span per non-empty batch: its ID is the
		// wire prelude of every record it produced and the parent of the
		// encode and queue-offer child spans. Spans of dry rounds are simply
		// never ended, so idle parking does not flood the ring.
		seg := segIdx
		var round, enc trace.Span
		if s.traced {
			round = trace.Begin(s.cfg.TraceNode, "round", s.traceID, s.rootSpan.ID(), int32(seg))
			enc = trace.Begin(s.cfg.TraceNode, "encode", s.traceID, round.ID(), int32(seg))
		}
		frames = sh.wrap(frames[:0], sh.src.Records(seg, s.cfg.EncodeBatch, alloc))
		segIdx = (segIdx + 1) % segments
		if len(frames) == 0 {
			// Nothing to say for this segment yet. Park briefly — this is
			// source starvation, not client backpressure, so no stall is
			// charged.
			select {
			case <-s.stop:
				return
			case <-time.After(2 * time.Millisecond):
			}
			continue
		}
		enc.End()
		s.counters.AddEncoded(int64(len(frames)))
		sh.c.encoded.Add(int64(len(frames)))

		for _, fr := range frames {
			fr.round = uint64(round.ID())
			fr.seg = int32(seg)
		}
		var offer trace.Span
		if s.traced {
			offer = trace.Begin(s.cfg.TraceNode, "queue_offer", s.traceID, round.ID(), int32(seg))
		}
		delivered := sh.fanOut(frames, live)
		offer.End()
		round.End()
		// Drop the pump's own reference; queued copies keep the frames
		// alive until their writers flush or shed them.
		for i := range frames {
			frames[i].release()
			frames[i] = nil
		}
		if !delivered {
			// Backpressure: every queue is full. Park until a writer drains
			// a record (or briefly, as a backstop) and charge the wait as
			// encoder stall time.
			t0 := time.Now()
			stopped := false
			select {
			case <-sh.consumed:
			case <-s.stop:
				stopped = true
			case <-time.After(2 * time.Millisecond):
			}
			d := time.Since(t0)
			s.counters.AddEncodeStall(d)
			sh.c.addStall(d)
			if stopped {
				return
			}
		}
		if pace := s.effectivePace(); pace > 0 {
			select {
			case <-s.stop:
				return
			case <-time.After(pace):
			}
		}
	}
}

// alloc is the allocator the shard's source builds its records in: the buffer
// of a frame from the pool, which wrap finds again when the record comes back.
func (sh *pumpShard) alloc(n int) []byte {
	fr := sh.s.frames.get(n)
	sh.laid = append(sh.laid, fr)
	return fr.buf
}

// wrap appends to frames the frame behind each of recs, which the source built
// in buffers from this round's alloc calls and returns in that order; a buffer
// it took and did not return is recycled. Anything else in recs is a bug in
// the source — the server would recycle memory it does not own — and panics.
func (sh *pumpShard) wrap(frames []*frameRef, recs [][]byte) []*frameRef {
	next := 0
	for _, rec := range recs {
		// Frames are never empty: the smallest record is a header and a CRC.
		for ; next < len(sh.laid) && (len(rec) == 0 || &sh.laid[next].buf[0] != &rec[0]); next++ {
			sh.laid[next].release()
		}
		if next == len(sh.laid) {
			panic("netio: RecordSource returned a record it did not build in a buffer from alloc")
		}
		fr := sh.laid[next]
		next++
		fr.buf = rec
		frames = append(frames, fr)
	}
	for _, fr := range sh.laid[next:] {
		fr.release()
	}
	clear(sh.laid)
	sh.laid = sh.laid[:0]
	return frames
}

// fanOut offers the round's frames to every live session and reports whether
// any session accepted at least one record: one bulk offer (one lock, one
// batched counter update) per session per round.
func (sh *pumpShard) fanOut(frames []*frameRef, live []*session) bool {
	s := sh.s
	delivered := false
	nf := int64(len(frames))
	var roundOffered, roundShed int64
	osp := stageQueueOffer.Start()
	for _, ss := range live {
		acc := int64(ss.q.offerBatch(frames))
		ss.offered.Add(nf)
		if acc < nf {
			ss.shed.Add(nf - acc)
			roundShed += nf - acc
		}
		if acc > 0 {
			delivered = true
		}
		roundOffered += nf
	}
	osp.End()
	s.counters.AddOffered(roundOffered)
	s.counters.AddShed(roundShed)
	sh.c.offered.Add(roundOffered)
	sh.c.shed.Add(roundShed)
	if roundShed > 0 {
		trace.Emit(trace.KindShed, s.traceNodeName(), "queue_full", -1, roundShed)
	}
	return delivered
}

// recordLenLen is the length prefix every wire record starts with.
const recordLenLen = 4

// LayDenseRecord lays out one dense (XNC1) wire record of segment segID at p
// in a buffer from alloc — length prefix and block header written — and
// returns the record with its [C | x] row: BlockCount coefficient bytes, then
// BlockSize payload bytes, for the producer to fill in place. SealDenseRecord
// finishes the record once the row is final.
func LayDenseRecord(segID uint32, p rlnc.Params, alloc func(int) []byte) (rec, row []byte) {
	rec = alloc(recordLenLen + rlnc.WireSize(p))
	binary.BigEndian.PutUint32(rec, uint32(len(rec)-recordLenLen))
	return rec, rlnc.PutWireHeader(rec[recordLenLen:], segID, p)
}

// SealDenseRecord writes the checksum of a record from LayDenseRecord.
func SealDenseRecord(rec []byte) { rlnc.SealWire(rec[recordLenLen:]) }

// Snapshot copies the server's aggregate counters, each shard's slice of
// them, and the state of every live session.
func (s *Server) Snapshot() Snapshot {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	snap := Snapshot{
		Version:             SnapshotVersion,
		Mode:                s.Mode(),
		SessionsTotal:       s.sessionsTotal.Load(),
		SessionsRejected:    s.sessionsRejected.Load(),
		SessionSeconds:      time.Duration(s.sessionSecs.Load()).Seconds(),
		AdmissionBusy:       s.admissionBusy.Load(),
		AdmissionRedirected: s.admissionRedirected.Load(),
		BrownoutRung:        int(s.brownoutRung.Load()),
		BrownoutTransitions: s.brownoutTransitions.Load(),
		Draining:            draining,
		CounterView:         s.counters.View(),
	}
	snap.Shards = make([]ShardSnapshot, len(s.shards))
	snap.PerSession = make([]SessionSnapshot, 0, 16)
	for i, sh := range s.shards {
		sh.mu.Lock()
		snap.Shards[i] = ShardSnapshot{
			Shard:       sh.id,
			Sessions:    len(sh.sessions),
			CounterView: sh.c.view(),
		}
		for ss := range sh.sessions {
			snap.PerSession = append(snap.PerSession, SessionSnapshot{
				ID:       ss.id,
				Shard:    sh.id,
				Addr:     remoteAddr(ss.conn),
				QueueLen: ss.q.len(),
				QueueCap: ss.q.cap(),
				Offered:  ss.offered.Load(),
				Sent:     ss.sent.Load(),
				Shed:     ss.shed.Load(),
				Bytes:    ss.bytes.Load(),
				Duration: time.Since(ss.started),
			})
		}
		sh.mu.Unlock()
		snap.Sessions += snap.Shards[i].Sessions
	}
	return snap
}

func remoteAddr(c net.Conn) string {
	if a := c.RemoteAddr(); a != nil {
		return a.String()
	}
	return ""
}

// Shutdown stops accepting, closes the registered listeners and every live
// connection, and waits for the sessions, decision writers, and pumps to
// exit. It is idempotent and safe to race with Serve, Drain, and itself:
// every call blocks until the teardown is complete. For a teardown that lets
// in-flight sessions finish first, use Drain.
func (s *Server) Shutdown() {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for ss := range sh.sessions {
			ss.conn.Close()
		}
		sh.mu.Unlock()
	}
	s.mu.Unlock()
	if !alreadyClosed {
		close(s.stop)
	}
	// Ensure no pump can start after this point, even if Serve was never
	// called; a started pump set observes s.stop and exits.
	s.pumpOnce.Do(func() {})
	s.pumpWG.Wait()
	s.wg.Wait()
	s.auxWG.Wait()
	if !alreadyClosed {
		s.rootSpan.End()
	}
}

// closeSessions force-closes every live session connection without marking
// the server closed — the drain-deadline hammer.
func (s *Server) closeSessions() {
	s.mu.Lock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		for ss := range sh.sessions {
			ss.conn.Close()
		}
		sh.mu.Unlock()
	}
	s.mu.Unlock()
}

// Drain gracefully retires the server: it keeps accepting connections but
// answers every new handshake with REDIRECT to redirectAddr (BUSY when
// redirectAddr is empty), lets in-flight sessions run to completion — an
// RLNC client hangs up on its own at full rank — and then shuts down. If ctx
// ends first the remaining sessions are force-closed, the shutdown still
// completes, and ctx.Err() is returned; the shed-at-teardown accounting
// keeps the offered == sent + shed ledger exact either way.
//
// Drain is idempotent and safe to race with Shutdown, Serve, and itself: a
// concurrent Drain waits for the first one to finish, and Drain on a
// shut-down server is a no-op.
func (s *Server) Drain(ctx context.Context, redirectAddr string) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	if s.draining {
		done := s.drainDone
		s.mu.Unlock()
		select {
		case <-done:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	s.draining = true
	s.drainAddr = redirectAddr
	done := make(chan struct{})
	s.drainDone = done
	joined := s.joined
	s.mu.Unlock()
	defer close(done)
	trace.Emit(trace.KindDrain, s.traceNodeName(), redirectAddr, -1, int64(joined))

	// No session wg.Add can happen once draining is set (the admission path
	// rejects under the same mutex), so waiting here cannot race a late Add.
	waited := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(waited)
	}()
	var err error
	select {
	case <-waited:
	case <-ctx.Done():
		err = ctx.Err()
		s.closeSessions()
		<-waited
	}
	s.Shutdown()
	return err
}
