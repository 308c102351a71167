package netio

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"net"
	"runtime"
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

// flushBytes is how many bytes one vectored flush covers: a flush takes
// records until their bytes reach it. At n=128, k=4096 that is 16 records; at
// n=32, k=256 it is a whole 64-record queue (18 KiB) where a 16-record cap
// flushed 4.5 KiB, and every flush is a writev.
const flushBytes = 64 << 10

// flushRecords is how many records one flush covers on a server whose frames
// are frameLen bytes: enough of the longest records it frames to reach
// flushBytes, and no more than a session queue holds.
func flushRecords(frameLen, queueDepth int) int {
	return min(queueDepth, (flushBytes+frameLen-1)/frameLen)
}

// Server sends coded blocks for one object to every connection. One pump
// goroutine takes a batch of frames from the server's pool, has the server's
// one record source lay a record in each, and fans every filled frame — one
// refcounted buffer — out to every session's bounded queue without blocking;
// a batch big enough to pay for the hand-off is encoded in parallel on the
// shared worker pool (rlnc.SharedPool), a smaller one on the pump.
// A per-flush write deadline bounds the cost of a stuck peer, and the traffic
// ledger is exposed via Snapshot.
//
// Every session holds a credit per segment: how many more records of it the
// session is owed (n + margin from the handshake on; netio.go has the rules).
// The pump encodes only what some session is owed and has queue room for, so a
// client that hangs up at full rank leaves at most the margin unsent, and a
// satisfied server parks instead of filling socket buffers. Each session has
// one reader of client→server records, which turns need records into fresh
// credit and ends the session at end of stream, on any other bytes, or — once
// the session is owed nothing and has nothing queued — after the
// write-deadline budget of silence.
//
// A media-backed ModeDense server sends XNC3 counter records: each carries a
// record index instead of its coefficient vector, which the client derives
// from the index and the key in the session header (hsFlagCounter).
//
// A segment the source holds whole is not pushed. Each session first writes,
// of every such segment, the n records of the source's basis for it (counter
// records 0…n−1 of a media-backed ModeDense server, the source blocks of a
// ModeSystematic one, a relay's held records) once — the sweep — from a table
// of framed records all sessions share, each asked of the source once,
// as fast as its connection takes them, through no queue, reading nothing
// meanwhile. Then it starts its reader owed nothing of those segments: a peer
// that decoded from the sweep hangs up (the common case, and the pump never
// woke), and one that asks is fed the pump's records, as far as its credit
// goes. The session is in the server's session set from the handshake on, so
// the session cap, Snapshot, Drain and Shutdown see it in every state.
type Server struct {
	cfg  ServerConfig // normalized
	info SessionInfo

	frames *framePool
	src    RecordSource
	sweep  *sweepTable // src's sweep records, framed on first use

	// counter marks a media-backed ModeDense server: its records are XNC3
	// counter records under key, which every session header declares, and
	// its sweep entries are encoded, not merely framed (sweepRecord).
	counter bool
	key     uint64

	// grantCap is a full grant, n + margin: a session's credit in any segment
	// never exceeds it.
	grantCap int32

	// batch caps a pump round: a quarter generation, so a segment waits at
	// most a short interleave behind the others, but at least 4 records to
	// amortize a round's fixed cost.
	batch int

	// frameLen is the length of every frame the pump hands its source,
	// frameSize of the server's params. flushRecs is flushRecords for it:
	// what one writeLoop or writeSweep flush covers.
	frameLen, flushRecs int

	counters         Counters
	sessionsTotal    obs.Counter
	sessionsRejected obs.Counter
	needRecords      obs.Counter  // need records read from clients
	sessionSecs      atomic.Int64 // summed finished-session durations, in ns

	// Admission decisions written to rejected connections.
	admissionBusy obs.Counter

	// mu guards the session set and the server's lifecycle. sessions holds
	// every session past its handshake: its size is the live session count.
	mu        sync.Mutex
	sessions  map[*session]struct{}
	closed    bool
	draining  bool
	drainDone chan struct{} // closed when the active Drain finishes
	listeners map[net.Listener]struct{}
	nextID    int64

	stop     chan struct{} // closed by Shutdown
	wake     chan struct{} // a session arrived or was granted credit
	consumed chan struct{} // a session drained a record
	pumpOnce sync.Once
	pumpWG   sync.WaitGroup
	wg       sync.WaitGroup // session goroutines
	auxWG    sync.WaitGroup // decision-writer goroutines

	// bufs is the buffers of the round's frames as the source fills them, and
	// room each live session's free queue slots this round. Both are the pump
	// goroutine's.
	bufs [][]byte
	room []int

	// napTimer is the pump's one timer: every timed park reuses it (see nap).
	napTimer *time.Timer

	// Distributed tracing. traced is latched at construction — cfg.TraceNode
	// set AND the process-global recorder enabled — so every session of one
	// server declares the same context. rootSpan opens at construction and
	// closes in Shutdown; pump rounds and sweeps parent under it, and its
	// (traceID, ID) pair is the trace context every client's session header
	// carries, and all it carries: the records are an untraced session's.
	traced   bool
	traceID  trace.TraceID
	rootSpan trace.Span
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
	if len(obj.Segments) > maxSegments {
		return nil, fmt.Errorf("netio: %d bytes are %d segments of %v, over the %d a session may declare", len(media), len(obj.Segments), p, maxSegments)
	}
	cfg = cfg.normalized()
	key := uint64(cfg.Seed)
	var src RecordSource
	if cfg.Mode == ModeSystematic {
		src = newSystematicSource(obj, cfg.Seed)
	} else {
		penc, err := rlnc.NewParallelEncoder(rlnc.SharedPool().Workers(), rlnc.FullBlock)
		if err != nil {
			return nil, err
		}
		src = newCounterSource(obj, key, penc)
	}
	s, err := newServer(cfg, src)
	if err != nil {
		return nil, err
	}
	if cfg.Mode != ModeSystematic {
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
// ignored here.
func NewSourceServerFromConfig(src RecordSource, cfg ServerConfig) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	info := src.Info()
	if err := info.Validate(); err != nil {
		return nil, fmt.Errorf("netio: bad source session info: %w", err)
	}
	cfg = cfg.normalized()
	cfg.Mode = info.Mode
	return newServer(cfg, src)
}

// newServer builds the server over its record source.
func newServer(cfg ServerConfig, src RecordSource) (*Server, error) {
	info := src.Info()
	n := info.Params.BlockCount
	batch := max(4, n/4)
	frameLen := frameSize(info.Params)
	s := &Server{
		cfg:       cfg,
		info:      info,
		grantCap:  int32(n + grantMargin(info.Mode)),
		batch:     batch,
		frameLen:  frameLen,
		flushRecs: flushRecords(frameLen, cfg.QueueDepth),
		bufs:      make([][]byte, batch),
		frames:    &framePool{},
		src:       src,
		sweep:     &sweepTable{n: n, segs: make([]atomic.Pointer[[]atomic.Pointer[[]byte]], info.Segments)},
		sessions:  make(map[*session]struct{}),
		stop:      make(chan struct{}),
		wake:      make(chan struct{}, 1),
		consumed:  make(chan struct{}, 1),
		listeners: make(map[net.Listener]struct{}),
		napTimer:  time.NewTimer(time.Hour),
	}
	s.napTimer.Stop()
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
		"connections refused by the session cap", &s.sessionsRejected); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.need_records",
		"need records read from clients, each one resetting its session's credit: asks for records past a grant", &s.needRecords); err != nil {
		return err
	}
	if err := reg.RegisterCounter("netio.admission_busy",
		"BUSY admission decisions written to new connections", &s.admissionBusy); err != nil {
		return err
	}
	if err := reg.RegisterFunc("netio.sessions_live",
		"sessions currently connected", func() float64 {
			s.mu.Lock()
			n := len(s.sessions)
			s.mu.Unlock()
			return float64(n)
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

// session is one connected client.
type session struct {
	id      int64
	conn    net.Conn
	q       *frameQueue
	started time.Time

	offered atomic.Int64
	sent    atomic.Int64
	shed    atomic.Int64
	bytes   atomic.Int64

	// credit[s] is how many more records of segment s the session is owed.
	// The reader sets it from a need record; the pump takes from it what a
	// round offers the session.
	credit []atomic.Int32

	// idleMu orders the writer's arming of the idle read deadline (the
	// session is owed nothing and has nothing queued) against a grant, which
	// disarms it: a grant the writer did not see never leaves the deadline
	// armed. idle is whether it is armed.
	idleMu sync.Mutex
	idle   bool

	stop   chan struct{} // closed on server shutdown
	hangup chan struct{} // closed when the session's reader has ended
}

// owedNothing reports whether the session has no credit left in any segment.
func (ss *session) owedNothing() bool {
	for i := range ss.credit {
		if ss.credit[i].Load() > 0 {
			return false
		}
	}
	return true
}

// Serve accepts connections from l until ctx is cancelled, the listener
// fails, or the server is shut down. Every accepted connection becomes a
// session fed from the server's pump. It returns nil after a clean
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
	s.startPump()

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
			return nil
		}
	}
}

// startSession decides admission for conn: an admitted connection gets a
// session goroutine; a rejected one (session cap, drain) gets a short-lived
// decision writer that answers BUSY and closes it.
// It reports false only when the server is closed — the caller then owns the
// connection.
func (s *Server) startSession(conn net.Conn) bool {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if s.draining {
		s.rejectSession(conn)
		return true
	}
	if s.cfg.MaxSessions > 0 && len(s.sessions) >= s.cfg.MaxSessions {
		s.sessionsRejected.Add(1)
		s.rejectSession(conn)
		return true
	}
	s.nextID++
	ss := &session{
		id:      s.nextID,
		conn:    conn,
		q:       newFrameQueue(s.cfg.QueueDepth),
		started: time.Now(),
		credit:  make([]atomic.Int32, s.info.Segments),
		stop:    s.stop,
		hangup:  make(chan struct{}),
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

// rejectSession hands conn to a goroutine that writes it a BUSY decision, and
// releases s.mu, which the caller must hold: the auxWG.Add has to be ordered
// before Shutdown's closed flip (also under s.mu) so Shutdown's auxWG.Wait
// covers every writer.
func (s *Server) rejectSession(conn net.Conn) {
	d := admissionDecision{retryAfter: s.cfg.RetryAfter}
	s.admissionBusy.Add(1)
	trace.Emit(trace.KindAdmission, s.traceNodeName(), "busy", -1, d.retryAfter.Milliseconds())
	s.auxWG.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.auxWG.Done()
		defer conn.Close()
		if s.cfg.WriteDeadline > 0 {
			conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteDeadline))
		}
		conn.Write(appendDecision(nil, d)) //nolint:errcheck — best effort; the peer may already be gone
	}()
}

// runSession writes the handshake, joins the server's session set, and
// streams records — the sweep first, if the source holds any segment whole,
// then whatever the pump queues — with the session's reader beside it, until
// the peer hangs up, asks wrongly or idles out, a write fails its deadline
// budget, or the server shuts down.
func (s *Server) runSession(ss *session) {
	defer s.wg.Done()
	defer ss.conn.Close()

	swept := s.firstGrant(ss)
	hs := handshake{hdr: s.info, key: s.key}
	if s.traced {
		hs.tctx = traceContext{trace: s.traceID, root: s.rootSpan.ID()}
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
			s.sessions[ss] = struct{}{}
		}
		s.mu.Unlock()
		if joined {
			if len(swept) == 0 || s.writeSweep(ss, swept) == nil {
				go s.readNeeds(ss)
				s.signalWake()
				s.writeLoop(ss)
				ss.conn.Close() // ends the reader, if the writer ended first
				<-ss.hangup
			}
			s.mu.Lock()
			delete(s.sessions, ss)
			s.mu.Unlock()
		}
	}
	s.shedResidue(ss)
	s.sessionSecs.Add(int64(time.Since(ss.started)))
}

// firstGrant returns the segments the session is swept, in order — those the
// source holds whole, owed nothing more — and owes every other one the default
// grant, so nothing waits on the client before the first record.
func (s *Server) firstGrant(ss *session) (swept []int) {
	for seg := range ss.credit {
		if s.sweepRecord(seg, 0, s.rootSpan.ID()) != nil {
			swept = append(swept, seg)
		} else {
			ss.credit[seg].Store(s.grantCap)
		}
	}
	return swept
}

// sweepRecord returns sweep-table entry (seg, i), asking the source if no
// session has yet, or nil while the source does not hold seg whole; racing
// sessions get identical bytes, and the first to publish wins. A counter
// server's source encodes the entry, so each one it publishes counts in
// BlocksEncoded, and a traced server spans the encode under parent: the
// session's sweep, or the server's root (firstGrant).
func (s *Server) sweepRecord(seg, i int, parent trace.SpanID) []byte {
	entries := s.sweep.segs[seg].Load()
	if entries != nil {
		if rec := (*entries)[i].Load(); rec != nil {
			return *rec
		}
	}
	var enc trace.Span
	if s.traced && s.counter {
		enc = trace.Begin(s.cfg.TraceNode, "encode", s.traceID, parent, int32(seg))
	}
	rec := s.src.Sweep(seg, i)
	enc.End()
	if rec == nil {
		return nil
	}
	if entries == nil { // racing sessions keep the first allocation
		fresh := make([]atomic.Pointer[[]byte], s.sweep.n)
		s.sweep.segs[seg].CompareAndSwap(nil, &fresh)
		entries = s.sweep.segs[seg].Load()
	}
	kept := rec // only a record the table keeps moves to the heap
	if slot := &(*entries)[i]; !slot.CompareAndSwap(nil, &kept) {
		return *slot.Load()
	}
	if s.counter {
		s.counters.AddEncoded(1)
	}
	return rec
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

// readNeeds is the session's one reader of client→server records. Each need
// record resets the session's credit (grant); end of stream is a peer that has
// what it came for, and anything but a need record — garbage, a record for
// another segment count, silence past an armed idle deadline — is a peer to
// drop. Either way the reader ends the session: it closes the connection,
// which fails any write in flight, and the writer sees hangup. A need record
// is read through a buffer sized by the server's own segment count, so no
// peer's bytes size a read or an allocation.
func (s *Server) readNeeds(ss *session) {
	defer close(ss.hangup)
	defer ss.conn.Close()
	deficits := make([]uint32, len(ss.credit))
	buf := make([]byte, needLen(len(deficits)))
	for readNeed(ss.conn, buf, deficits) == nil {
		s.needRecords.Inc()
		s.grant(ss, deficits)
	}
}

// grant sets the session's credit from a need record's deficits — min(d, n) +
// margin for a segment short by d, 0 for a complete one — disarms the idle
// deadline, and wakes the pump. It sets, never adds: however many need records
// a peer sends, no segment is owed more than grantCap.
func (s *Server) grant(ss *session, deficits []uint32) {
	n := uint32(s.info.Params.BlockCount)
	margin := s.grantCap - int32(n)
	ss.idleMu.Lock()
	if ss.idle {
		ss.conn.SetReadDeadline(time.Time{})
		ss.idle = false
	}
	for i, d := range deficits {
		c := int32(0)
		if d > 0 {
			c = int32(min(d, n)) + margin
		}
		ss.credit[i].Store(c)
	}
	ss.idleMu.Unlock()
	s.signalWake()
}

// awaitAsk arms the idle read deadline of a session owed nothing whose queue
// the writer has just emptied: the peer has WriteDeadline to hang up or ask
// before its reader gives up on it. A zero WriteDeadline never drops an idle
// session.
func (s *Server) awaitAsk(ss *session) {
	if s.cfg.WriteDeadline <= 0 {
		return
	}
	ss.idleMu.Lock()
	if !ss.idle && ss.owedNothing() {
		ss.conn.SetReadDeadline(time.Now().Add(s.cfg.WriteDeadline))
		ss.idle = true
	}
	ss.idleMu.Unlock()
}

// writeSweep writes the sweep table's records of the swept segments straight
// to the connection, at most flushRecs per vectored write, under the same
// deadline and short-write rules as any flush. Every record is offered,
// and then sent or shed, in the session's ledger; none is encoded — that
// counter is the pump's.
func (s *Server) writeSweep(ss *session, swept []int) error {
	n := s.info.Params.BlockCount
	total := len(swept) * n
	start := sweepStart(ss.id, total)
	// Private headers over the shared records, so the batch goes through the
	// same flush as a queued one; nothing retains or releases them.
	refs := make([]frameRef, s.flushRecs)
	batch := make([]*frameRef, 0, s.flushRecs)
	bufs := make(net.Buffers, 0, s.flushRecs)
	var sp trace.Span
	if s.traced {
		sp = trace.Begin(s.cfg.TraceNode, "sweep", s.traceID, s.rootSpan.ID(), -1)
		defer sp.End()
	}
	for done := 0; done < total; done += len(batch) {
		batch = batch[:min(s.flushRecs, total-done)]
		for i := range batch {
			idx := (start + done + i) % total
			seg := swept[idx/n]
			refs[i].buf = s.sweepRecord(seg, idx%n, sp.ID())
			refs[i].round = uint64(sp.ID())
			refs[i].seg = int32(seg)
			batch[i] = &refs[i]
		}
		offered := int64(len(batch))
		ss.offered.Add(offered)
		s.counters.AddOffered(offered)
		if err := s.flush(ss, batch, &bufs); err != nil {
			return err
		}
	}
	return nil
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
	trace.Emit(trace.KindShed, s.traceNodeName(), "teardown", -1, n)
	for _, fr := range rest {
		fr.release()
	}
}

// writeLoop drains the session queue onto the connection, flushing up to
// flushRecs records per vectored write, until a flush fails, the reader ends
// the session, or the server shuts down.
func (s *Server) writeLoop(ss *session) {
	batchCap := s.flushRecs
	batch := make([]*frameRef, batchCap)
	bufs := make(net.Buffers, 0, batchCap)
	for {
		n := ss.q.popBatch(batch)
		if n == 0 {
			s.awaitAsk(ss)
			select {
			case <-ss.q.bell:
				continue
			case <-ss.hangup:
				return
			case <-ss.stop:
				return
			}
		}
		s.signalConsumed()
		err := s.flush(ss, batch[:n], &bufs)
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
func (s *Server) flush(ss *session, batch []*frameRef, bufs *net.Buffers) error {
	wsp := stageRecordSend.Start()
	var fsp trace.Span
	if s.traced {
		// The flush span parents under the first frame's round — batches
		// usually drain in round order, so the attribution error is at
		// most one round boundary per flush.
		fsp = trace.Begin(s.cfg.TraceNode, "flush", s.traceID, trace.SpanID(batch[0].round), batch[0].seg)
	}
	sentN, sentBytes, err := s.writeFrames(ss, batch, bufs)
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
	}
	if dropped := int64(len(batch) - sentN); dropped > 0 {
		ss.shed.Add(dropped)
		s.counters.AddShed(dropped)
		trace.Emit(trace.KindShed, s.traceNodeName(), "write_failed", -1, dropped)
	}
	return err
}

// writeFrames flushes frs in one vectored write (writev on a TCP connection)
// under one WriteDeadline: a write that misses it, or fails any other way,
// fails the session. It returns how many frames were fully written and their
// byte count — on failure the remainder is the caller's to shed.
func (s *Server) writeFrames(ss *session, frs []*frameRef, scratch *net.Buffers) (int, int64, error) {
	bufs := (*scratch)[:0]
	total := 0
	for _, fr := range frs {
		bufs = append(bufs, fr.buf)
		total += len(fr.buf)
	}
	// Written through the caller's header (a local one would escape on every
	// flush), which WriteTo consumes: hand the backing array back.
	*scratch = bufs
	defer func() { *scratch = bufs[:0] }()
	if s.cfg.WriteDeadline > 0 {
		ss.conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteDeadline))
	}
	written, err := scratch.WriteTo(ss.conn)
	if err == nil {
		return len(frs), int64(total), nil
	}
	sentN, sentBytes, partial := framesDone(frs, int(written))
	if partial {
		err = fmt.Errorf("%w: %d of %d bytes: %v", ErrShortWrite, written, total, err)
	}
	return sentN, sentBytes, err
}

// framesDone maps a written byte count onto the frame sequence: how many
// frames the bytes fully cover, their summed wire length, and whether the
// count ends inside a frame.
func framesDone(frs []*frameRef, written int) (int, int64, bool) {
	var k int
	var bytes int64
	for _, fr := range frs {
		l := len(fr.buf)
		if written < l {
			return k, bytes, written > 0
		}
		k++
		bytes += int64(l)
		written -= l
	}
	return k, bytes, false
}

func (s *Server) signalWake() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

func (s *Server) signalConsumed() {
	select {
	case s.consumed <- struct{}{}:
	default:
	}
}

func (s *Server) startPump() {
	s.pumpOnce.Do(func() {
		s.pumpWG.Add(1)
		go s.pump()
	})
}

// pump is the server's record loop: each round it picks the next segment, in
// round-robin order, that some session is owed and has queue room for, has the
// source fill a batch of frames with its records and fans them out to the
// sessions owed them, without ever blocking on a client. When sessions are
// owed records but every one of their queues is full, the pump parks briefly
// and the wait is charged to the encode-stall counters; when no session is
// owed anything it sleeps, with nothing charged, until a session joins, asks
// or drains. A dry source (a relay whose recoders have no rank yet) parks the
// pump briefly without charging a stall.
func (s *Server) pump() {
	defer s.pumpWG.Done()
	segments := s.info.Segments
	segIdx := 0
	live := make([]*session, 0, 16)
	frames := make([]*frameRef, s.batch)
	// fed[seg] is whether the source filled the last round of seg. A round of
	// a segment not fed — no round yet, or nothing filled last time — asks
	// for one record first, and for the rest of its batch once that one is
	// filled: a source with nothing to say there (a relay that holds no rank
	// yet) costs the pool one frame a round, not a batch, and every round
	// puts the same records on the wire.
	fed := make([]bool, segments)
	idle := true // no round since start or since nobody was owed anything
	for {
		select {
		case <-s.stop:
			return
		default:
		}

		s.mu.Lock()
		live = live[:0]
		for ss := range s.sessions {
			live = append(live, ss)
		}
		s.mu.Unlock()
		seg, batch, owed := s.nextRound(live, segIdx, segments)
		if batch == 0 {
			if !s.park(owed) {
				return
			}
			idle = idle || !owed
			continue
		}

		// A traced pump opens a round span per non-empty batch: the parent of
		// its encode and queue-offer child spans and of the flushes that write
		// its records. Spans of dry rounds are simply never ended, so idle
		// parking does not flood the ring.
		var round, enc trace.Span
		if s.traced {
			round = trace.Begin(s.cfg.TraceNode, "round", s.traceID, s.rootSpan.ID(), int32(seg))
			enc = trace.Begin(s.cfg.TraceNode, "encode", s.traceID, round.ID(), int32(seg))
		}
		k := 0
		if !fed[seg] {
			k = s.fill(seg, frames[:1])
		}
		if k < batch && (k > 0 || fed[seg]) {
			k += s.fill(seg, frames[k:batch])
		}
		filled := frames[:k]
		segIdx = (seg + 1) % segments
		fed[seg] = k > 0
		if k == 0 {
			// Nothing to say for this segment yet. Park briefly — this is
			// source starvation, not client backpressure, so no stall is
			// charged.
			if !s.nap(2*time.Millisecond, nil) {
				return
			}
			continue
		}
		enc.End()
		s.counters.AddEncoded(int64(len(filled)))

		for _, fr := range filled {
			fr.round = uint64(round.ID())
			fr.seg = int32(seg)
		}
		var offer trace.Span
		if s.traced {
			offer = trace.Begin(s.cfg.TraceNode, "queue_offer", s.traceID, round.ID(), int32(seg))
		}
		s.fanOut(filled, live, seg)
		offer.End()
		round.End()
		// Drop the pump's own reference; queued copies keep the frames
		// alive until their writers flush or shed them.
		for i := range filled {
			filled[i].release()
			filled[i] = nil
		}
		if idle {
			// The writers this round woke are queued on the pump's CPU. The
			// other CPUs slept while the server idled, and waking one to take
			// them costs about 100 µs on a VM — what a fresh server's first
			// record would wait while the pump, no longer parked in a pool
			// dispatch, encodes its next rounds. So the first round after an
			// idle park hands them this CPU; a busy pump does not yield, and
			// its writers batch what it encodes meanwhile.
			idle = false
			runtime.Gosched()
		}
	}
}

// fill takes a frame from the pool for each of frames, has the source lay
// records of segment seg in their buffers, and returns how many it filled:
// frames[:k] hold the records, the rest are back in the pool. A record that
// does not start at its frame's first byte is a bug in the source — the server
// would recycle memory it does not own — and panics.
func (s *Server) fill(seg int, frames []*frameRef) int {
	bufs := s.bufs[:len(frames)]
	for i := range frames {
		frames[i] = s.frames.get(s.frameLen)
		bufs[i] = frames[i].buf
	}
	k := s.src.Records(seg, bufs)
	if k < 0 || k > len(frames) {
		panic(fmt.Sprintf("netio: RecordSource filled %d of %d frames", k, len(frames)))
	}
	for i, fr := range frames {
		if i >= k {
			fr.release()
			continue
		}
		// Frames are never empty: the smallest record is a header and a CRC.
		if len(bufs[i]) == 0 || &bufs[i][0] != &fr.buf[0] {
			panic("netio: RecordSource returned a record outside the frame it was handed")
		}
		fr.buf = bufs[i]
	}
	return k
}

// nextRound picks the round's segment and batch size: the first segment from
// cursor, in round-robin order, that a live session is owed and has queue room
// for, and min(s.batch, max over sessions of min(credit, free slots)).
// owed reports whether any session is owed anything at all, so a zero batch
// with owed set means every owed session's queue is full.
func (s *Server) nextRound(live []*session, cursor, segments int) (seg, batch int, owed bool) {
	s.room = s.room[:0]
	for _, ss := range live {
		s.room = append(s.room, ss.q.free())
	}
	for i := range segments {
		seg = (cursor + i) % segments
		for j, ss := range live {
			c := int(ss.credit[seg].Load())
			if c <= 0 {
				continue
			}
			owed = true
			batch = max(batch, min(c, s.room[j]))
		}
		if batch > 0 {
			return seg, min(batch, s.batch), true
		}
	}
	return 0, 0, owed
}

// park waits out a round with nothing to encode. Sessions owed records behind
// full queues are backpressure: park until a writer drains a record (or
// briefly, as a backstop) and charge the wait as encoder stall time. Sessions
// owed nothing — or none at all — cost nothing: sleep until one joins, asks or
// drains. It reports false once the server is stopping.
func (s *Server) park(owed bool) bool {
	if !owed {
		select {
		case <-s.wake:
		case <-s.consumed:
		case <-s.stop:
			return false
		}
		return true
	}
	t0 := time.Now()
	ok := s.nap(2*time.Millisecond, s.consumed)
	s.counters.AddEncodeStall(time.Since(t0))
	return ok
}

// nap parks the pump for d, or until wake (nil: never) fires or the server
// stops, on the pump's one timer: the pump outpaces its writers often enough
// that a timer per park is garbage worth avoiding. Since Go 1.23 a Reset
// discards any expiry nobody received, so the timer needs no draining. It
// reports false once the server is stopping.
func (s *Server) nap(d time.Duration, wake <-chan struct{}) bool {
	s.napTimer.Reset(d)
	select {
	case <-wake:
	case <-s.napTimer.C:
	case <-s.stop:
		return false
	}
	return true
}

// fanOut offers each live session as many of the round's frames of segment seg
// as it is owed and its queue had room for when nextRound sized the round: one bulk
// offer (one lock, one batched counter update) per owed session per round.
// The offer is taken from the session's credit before its writer can see the
// records — a writer that empties its queue never finds credit for records
// already queued. Only this pump fills the queue, so the room can only have
// grown since: a queue refuses records only once its session is tearing down,
// and those are shed with the rest of its queue.
func (s *Server) fanOut(frames []*frameRef, live []*session, seg int) {
	var roundOffered, roundShed int64
	osp := stageQueueOffer.Start()
	for j, ss := range live {
		credit := &ss.credit[seg]
		k := min(int(credit.Load()), len(frames), s.room[j])
		if k <= 0 {
			continue
		}
		credit.Add(int32(-k))
		acc := ss.q.offerBatch(frames[:k])
		ss.offered.Add(int64(k))
		if acc < k {
			ss.shed.Add(int64(k - acc))
			roundShed += int64(k - acc)
		}
		roundOffered += int64(k)
	}
	osp.End()
	s.counters.AddOffered(roundOffered)
	s.counters.AddShed(roundShed)
	if roundShed > 0 {
		trace.Emit(trace.KindShed, s.traceNodeName(), "teardown", -1, roundShed)
	}
}

// recordLenLen is the length prefix every wire record starts with.
const recordLenLen = 4

// Snapshot copies the server's counters and the state of every live session.
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{
		Version:          SnapshotVersion,
		Mode:             s.Mode(),
		SessionsTotal:    s.sessionsTotal.Load(),
		SessionsRejected: s.sessionsRejected.Load(),
		SessionSeconds:   time.Duration(s.sessionSecs.Load()).Seconds(),
		AdmissionBusy:    s.admissionBusy.Load(),
		CounterView:      s.counters.View(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	snap.Draining = s.draining
	snap.Sessions = len(s.sessions)
	snap.PerSession = make([]SessionSnapshot, 0, len(s.sessions))
	for ss := range s.sessions {
		snap.PerSession = append(snap.PerSession, SessionSnapshot{
			ID:       ss.id,
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
	s.mu.Unlock()
	// No session joins once closed is set, so this reaches every one.
	s.closeSessions()
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

// closeSessions force-closes every live session connection: Shutdown's
// teardown, and the drain-deadline hammer.
func (s *Server) closeSessions() {
	s.mu.Lock()
	for ss := range s.sessions {
		ss.conn.Close()
	}
	s.mu.Unlock()
}

// Drain gracefully retires the server: it keeps accepting connections but
// answers every new handshake with BUSY (a mesh coordinator has already routed
// its leaves elsewhere), lets in-flight sessions run to completion — an RLNC
// client hangs up on its own at full rank — and then shuts down. If ctx ends
// first the remaining sessions are force-closed, the shutdown still
// completes, and ctx.Err() is returned; the shed-at-teardown accounting
// keeps the offered == sent + shed ledger exact either way.
//
// Drain is idempotent and safe to race with Shutdown, Serve, and itself: a
// concurrent Drain waits for the first one to finish, and Drain on a
// shut-down server is a no-op.
func (s *Server) Drain(ctx context.Context) error {
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
	done := make(chan struct{})
	s.drainDone = done
	live := len(s.sessions)
	s.mu.Unlock()
	defer close(done)
	trace.Emit(trace.KindDrain, s.traceNodeName(), "", -1, int64(live))

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
