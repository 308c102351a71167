package netio

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

// The systematic session: sweep → wait → repair. These tests run over
// net.Pipe wherever a state has to be held still — a pipe write returns only
// when the peer has read it, so "the client has read r records" pins the
// server mid-sweep exactly.

// readCountListener counts what the server reads from the connections it
// accepts: the whole inbound cost of a peer.
type readCountListener struct {
	net.Listener
	calls, bytes atomic.Int64
}

func (l *readCountListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &readCountConn{Conn: c, l: l}, nil
}

type readCountConn struct {
	net.Conn
	l *readCountListener
}

func (c *readCountConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.calls.Add(1)
	c.l.bytes.Add(int64(n))
	return n, err
}

// writeCountConn counts what a client writes.
type writeCountConn struct {
	net.Conn
	bytes atomic.Int64
}

func (c *writeCountConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

func newSweepServer(t testing.TB, media []byte, p rlnc.Params, mutate func(*ServerConfig)) *Server {
	t.Helper()
	cfg := DefaultServerConfig()
	cfg.Mode = ModeSystematic
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// sweepClient is a hand-driven peer: it reads the handshake and then records,
// one at a time, on request.
type sweepClient struct {
	t    testing.TB
	conn net.Conn
	hs   handshake
	size int
}

func dialSweep(t testing.TB, conn net.Conn) *sweepClient {
	t.Helper()
	hs, err := readHandshake(conn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if hs.dec != nil || hs.flags != 0 {
		t.Fatalf("not a systematic session: decision %+v, flags %#x", hs.dec, hs.flags)
	}
	return &sweepClient{t: t, conn: conn, hs: hs, size: 4 + rlnc.XorWireSize(hs.hdr.Params)}
}

// read consumes r sweep records and returns the source-block index each one
// carries, flattened as segment·n + block.
func (c *sweepClient) read(r int) []int {
	c.t.Helper()
	n := c.hs.hdr.Params.BlockCount
	idx := make([]int, 0, r)
	rec := make([]byte, c.size)
	var blk rlnc.CodedBlock
	for i := 0; i < r; i++ {
		if _, err := io.ReadFull(c.conn, rec); err != nil {
			c.t.Fatalf("sweep record %d: %v", i, err)
		}
		if string(rec[4:8]) != "XNC2" {
			c.t.Fatalf("sweep record %d is not an XNC2 record: % x", i, rec[4:8])
		}
		if err := blk.ParseView(rec[4:], rlnc.RecordFormat{Params: c.hs.hdr.Params}); err != nil {
			c.t.Fatalf("sweep record %d: %v", i, err)
		}
		at := bytes.IndexByte(blk.Coeffs, 1)
		if at < 0 || bytes.Count(blk.Coeffs, []byte{1}) != 1 {
			c.t.Fatalf("sweep record %d is not a source block: %v", i, blk.Coeffs)
		}
		idx = append(idx, int(blk.SegmentID)*n+at)
	}
	return idx
}

func (c *sweepClient) total() int { return c.hs.hdr.Params.BlockCount * c.hs.hdr.Segments }

// awaitClosed fails unless the server ends the session within the limit, and
// reports how long it took.
func (c *sweepClient) awaitClosed(limit time.Duration) time.Duration {
	c.t.Helper()
	t0 := time.Now()
	c.conn.SetReadDeadline(t0.Add(limit))
	var one [1]byte
	if n, err := c.conn.Read(one[:]); n != 0 || err == nil || isTimeout(err) {
		c.t.Fatalf("session still open after %v (read %d, %v)", limit, n, err)
	}
	return time.Since(t0)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

func awaitSessions(t testing.TB, srv *Server, want int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); srv.Snapshot().Sessions != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("live sessions = %d, want %d", srv.Snapshot().Sessions, want)
		}
	}
}

// TestSweepRecordNotWholeDoesNotAllocate: asking the table for a segment its
// source does not hold whole — what every handshake does for every segment of
// a relay still filling — allocates nothing and leaves the segment's entries
// unallocated.
func TestSweepRecordNotWholeDoesNotAllocate(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	srv := newPushServer(t, testMedia(t, 3*p.SegmentSize(), 62), p, DefaultServerConfig())
	if got := testing.AllocsPerRun(20, func() {
		for seg := range 3 {
			if srv.sweepRecord(seg, 0, 0) != nil {
				t.Fatal("a pool source swept a segment")
			}
		}
	}); got != 0 {
		t.Fatalf("%.1f allocations to ask about 3 segments not whole, want 0", got)
	}
	for seg := range srv.sweep.segs {
		if srv.sweep.segs[seg].Load() != nil {
			t.Fatalf("segment %d's entries allocated with nothing to keep", seg)
		}
	}
}

// TestSweepTableMatchesEncoder: every table entry is, byte for byte, the
// record the systematic encoder's sweep phase produces for that block through
// FrameRecord — what the pump used to put on the wire — or, on a dense origin,
// the counter record of its index; and nothing is framed before a session
// wants it.
func TestSweepTableMatchesEncoder(t *testing.T) {
	p := rlnc.Params{BlockCount: 12, BlockSize: 100}
	media := testMedia(t, 2*p.SegmentSize()-7, 61)
	srv := newSweepServer(t, media, p, nil)
	if len(srv.sweep.segs) != 2 || srv.sweep.n != p.BlockCount {
		t.Fatalf("sweep table of %d segments of %d entries", len(srv.sweep.segs), srv.sweep.n)
	}
	for seg := range srv.sweep.segs {
		if srv.sweep.segs[seg].Load() != nil {
			t.Fatalf("segment %d's entries allocated at construction", seg)
		}
	}
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	for s, seg := range obj.Segments {
		se := rlnc.NewSystematicEncoder(seg, rand.New(rand.NewSource(1)))
		for i := 0; i < p.BlockCount; i++ {
			want, err := FrameRecord(se.Block(), ModeSystematic)
			if err != nil {
				t.Fatal(err)
			}
			got := srv.sweepRecord(s, i, 0)
			if !bytes.Equal(got, want) {
				t.Fatalf("segment %d block %d: table record differs from the encoder's", s, i)
			}
			if again := srv.sweepRecord(s, i, 0); &again[0] != &got[0] {
				t.Fatalf("segment %d block %d framed twice", s, i)
			}
		}
	}
	// A dense origin sweeps counter records 0…n−1 of each segment, each the
	// record rlnc.CounterRecord builds for its index under the server's key,
	// encoded once and counted as encoded; its pump encodes nothing for them.
	cfg := DefaultServerConfig()
	cfg.Seed = 5
	dense, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, seg := range obj.Segments {
		for i := 0; i < p.BlockCount; i++ {
			got := dense.sweepRecord(s, i, 0)
			if len(got) < recordLenLen || int(binary.BigEndian.Uint32(got)) != len(got)-recordLenLen ||
				!bytes.Equal(got[recordLenLen:], rlnc.CounterRecord(seg, 5, uint32(i))) {
				t.Fatalf("dense segment %d record %d is not counter record %d under the key", s, i, i)
			}
			if again := dense.sweepRecord(s, i, 0); &again[0] != &got[0] {
				t.Fatalf("dense segment %d record %d encoded twice", s, i)
			}
		}
	}
	if got := dense.Snapshot().BlocksEncoded; got != int64(2*p.BlockCount) {
		t.Fatalf("dense table encoded %d records, want %d", got, 2*p.BlockCount)
	}
}

// TestSweepStartSpreads: successive sessions start their sweeps far apart, and
// never outside the table.
func TestSweepStartSpreads(t *testing.T) {
	for _, total := range []int{1, 2, 32, 256, 1000} {
		seen := make(map[int]bool)
		for id := int64(1); id <= 8; id++ {
			s := sweepStart(id, total)
			if s < 0 || s >= total {
				t.Fatalf("sweepStart(%d, %d) = %d", id, total, s)
			}
			seen[s] = true
		}
		if total >= 32 && len(seen) != 8 {
			t.Fatalf("total %d: 8 sessions share %d start points", total, len(seen))
		}
	}
	// Any four consecutive sessions, each cut after a quarter of the sweep,
	// overlap little: together they cover at least six tenths of the object.
	const total = 256
	for first := int64(1); first < 200; first++ {
		covered := make([]bool, total)
		for id := first; id < first+4; id++ {
			for i, s := 0, sweepStart(id, total); i < total/4; i++ {
				covered[(s+i)%total] = true
			}
		}
		n := 0
		for _, c := range covered {
			if c {
				n++
			}
		}
		if n < total*6/10 {
			t.Fatalf("sessions %d..%d cover %d of %d blocks", first, first+3, n, total)
		}
	}
}

// TestSweepLosslessFetch: on a clean link a leaf reads exactly n × segments
// records and hangs up; the server encodes nothing, sheds nothing, hears no
// need record, and its ledger balances.
func TestSweepLosslessFetch(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	media := testMedia(t, 3*p.SegmentSize()-11, 62)
	reg := obs.NewRegistry()
	srv := newSweepServer(t, media, p, func(c *ServerConfig) { c.Metrics = reg })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	serveOn(t, srv, l)

	total := 3 * p.BlockCount
	// Two hand-driven peers first, held open until both have joined, so the
	// table serves two sessions at once.
	var held []*sweepClient
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, dialSweep(t, conn))
		awaitSessions(t, srv, i+1)
	}
	for _, c := range held {
		c.read(total)
		c.conn.Close()
	}
	const clients = 4 + 2
	var wg sync.WaitGroup
	for i := 0; i < clients-len(held); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Error(err)
				return
			}
			payload, stats, err := Fetch(context.Background(), conn)
			if err != nil || !bytes.Equal(payload, media) {
				t.Errorf("fetch: %v (stats %+v)", err, stats)
				return
			}
			if stats.Records != total || stats.Dependent != 0 || stats.BytesDiscarded != 0 {
				t.Errorf("records %d dependent %d discarded %d, want %d, 0, 0", stats.Records, stats.Dependent, stats.BytesDiscarded, total)
			}
		}()
	}
	wg.Wait()
	awaitSessions(t, srv, 0)
	srv.Shutdown()

	snap := srv.Snapshot()
	checkAccounting(t, snap)
	if snap.BlocksEncoded != 0 || snap.BlocksShed != 0 || snap.BlocksSent != int64(clients*total) {
		t.Fatalf("encoded %d shed %d sent %d, want 0, 0, %d", snap.BlocksEncoded, snap.BlocksShed, snap.BlocksSent, clients*total)
	}
	if got := srv.needRecords.Load(); got != 0 {
		t.Fatalf("need_records = %d on a clean link", got)
	}
	for seg := range srv.sweep.segs {
		entries := srv.sweep.segs[seg].Load()
		for i := range p.BlockCount {
			if entries == nil || (*entries)[i].Load() == nil {
				t.Fatalf("entry %d of segment %d never framed", i, seg)
			}
		}
	}
	found := false
	for _, name := range reg.Names() {
		found = found || name == "netio.need_records"
	}
	if !found {
		t.Fatal("netio.need_records is not in the registry")
	}
}

// TestSweepTracedSession: on a traced server every session's sweep is one
// "sweep" span, a child of the server's root, and the sweep's records are the
// bare n × segments records of an untraced one.
func TestSweepTracedSession(t *testing.T) {
	trace.Enable(1 << 12)
	defer trace.Disable()

	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 2*p.SegmentSize(), 63)
	srv := newSweepServer(t, media, p, func(c *ServerConfig) { c.TraceNode = "origin" })
	l := startPipeServer(t, srv)

	const sessions = 2
	for i := 0; i < sessions; i++ {
		fcfg := DefaultFetcherConfig()
		fcfg.TraceNode = "leaf"
		fcfg.MaxAttempts = 1
		f := newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
		res, err := f.Fetch(context.Background())
		if err != nil || !bytes.Equal(res.Payload, media) {
			t.Fatalf("traced fetch %d: %v", i, err)
		}
		want := int64(2 * p.BlockCount)
		if st := res.Stats; st.Records != int(want) || st.Bytes != want*int64(recordLenLen+rlnc.XorWireSize(p)) {
			t.Fatalf("traced fetch %d read %d records in %d bytes", i, st.Records, st.Bytes)
		}
	}
	awaitSessions(t, srv, 0)
	root := srv.rootSpan.ID()
	srv.Shutdown()

	events := trace.Dump()
	sweeps := map[trace.SpanID]bool{}
	for _, e := range events {
		if e.Kind != trace.KindSpan || e.Stage != "sweep" {
			continue
		}
		if e.Node != "origin" || e.Parent != root || e.Trace != srv.traceID || sweeps[e.Span] {
			t.Fatalf("sweep span %+v, want one of origin's under root %d", e, root)
		}
		sweeps[e.Span] = true
	}
	if len(sweeps) != sessions {
		t.Fatalf("%d sweep spans for %d sessions", len(sweeps), sessions)
	}
	if asm := trace.Assemble(events); asm.Orphans != 0 {
		t.Fatalf("%d orphan spans", asm.Orphans)
	}
}

// TestSweepSessionLifecycle holds one session mid-sweep and one waiting after
// its sweep, and checks that the session cap counts both, that Snapshot shows
// both, and that Shutdown and Drain end both with the ledger balanced. Run
// under -race: the pump, the session goroutines and the teardown all touch
// the session set.
func TestSweepSessionLifecycle(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 2*p.SegmentSize(), 64)

	hold := func(t *testing.T) (*Server, *pipeListener, *sweepClient, *sweepClient) {
		srv := newSweepServer(t, media, p, func(c *ServerConfig) {
			c.MaxSessions = 2
			c.WriteDeadline = time.Minute // neither state may time out under the test
		})
		l := startPipeServer(t, srv)
		mid := dialSweep(t, l.Dial())
		mid.read(3)
		waiting := dialSweep(t, l.Dial())
		waiting.read(waiting.total())
		awaitSessions(t, srv, 2)

		hs, err := readHandshake(l.Dial())
		if err != nil || hs.dec == nil || hs.dec.retryAfter != srv.cfg.RetryAfter {
			t.Fatalf("third connection past a cap of 2: %+v, %v", hs.dec, err)
		}
		snap := srv.Snapshot()
		if len(snap.PerSession) != 2 || snap.BlocksEncoded != 0 {
			t.Fatalf("snapshot: %d sessions listed, %d encoded", len(snap.PerSession), snap.BlocksEncoded)
		}
		return srv, l, mid, waiting
	}
	settled := func(t *testing.T, srv *Server, mid, waiting *sweepClient) {
		t.Helper()
		mid.awaitClosed(10 * time.Second)
		waiting.awaitClosed(10 * time.Second)
		snap := srv.Snapshot()
		checkAccounting(t, snap)
		if snap.BlocksEncoded != 0 || snap.BlocksShed == 0 {
			t.Fatalf("encoded %d, shed %d: the cut sweep's unsent records must be shed, and nothing encoded", snap.BlocksEncoded, snap.BlocksShed)
		}
	}

	t.Run("shutdown", func(t *testing.T) {
		srv, _, mid, waiting := hold(t)
		done := make(chan struct{})
		go func() { srv.Shutdown(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Shutdown blocked on a sweeping or waiting session")
		}
		settled(t, srv, mid, waiting)
	})
	t.Run("drain deadline", func(t *testing.T) {
		srv, _, mid, waiting := hold(t)
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		defer cancel()
		if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Drain past its deadline = %v", err)
		}
		settled(t, srv, mid, waiting)
	})
	t.Run("drain waits", func(t *testing.T) {
		srv, l, mid, waiting := hold(t)
		drained := make(chan error, 1)
		go func() { drained <- srv.Drain(context.Background()) }()
		// A draining server answers a new connection BUSY with its retry
		// hint, not counted as a session-cap rejection.
		for !srv.Snapshot().Draining {
			time.Sleep(time.Millisecond)
		}
		hs, err := readHandshake(l.Dial())
		if err != nil || hs.dec == nil || hs.dec.retryAfter != srv.cfg.RetryAfter {
			t.Fatalf("connection to a draining server: %+v, %v", hs.dec, err)
		}
		if snap := srv.Snapshot(); snap.AdmissionBusy != 2 || snap.SessionsRejected != 1 {
			t.Fatalf("busy %d, rejected %d: want the cap's BUSY and the drain's", snap.AdmissionBusy, snap.SessionsRejected)
		}
		// The waiting peer hangs up: done. The mid-sweep peer reads on to the
		// end and hangs up too.
		waiting.conn.Close()
		select {
		case err := <-drained:
			t.Fatalf("Drain returned (%v) with a session mid-sweep", err)
		case <-time.After(20 * time.Millisecond):
		}
		mid.read(mid.total() - 3)
		mid.conn.Close()
		select {
		case err := <-drained:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Drain never finished")
		}
		snap := srv.Snapshot()
		checkAccounting(t, snap)
		if snap.BlocksShed != 0 || snap.BlocksSent != int64(2*mid.total()) {
			t.Fatalf("sent %d shed %d, want %d and 0", snap.BlocksSent, snap.BlocksShed, 2*mid.total())
		}
	})
}

// TestSweepResetMidSweep: a connection reset inside the sweep's vectored write
// sheds exactly the records that did not reach the wire whole.
func TestSweepResetMidSweep(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize(), 65)
	srv := newSweepServer(t, media, p, nil)
	// The server's side of every connection resets about 2000 bytes in: a
	// dozen records into a 32-record sweep.
	l := faultnet.NewListener(newPipeListener(), faultnet.Config{Seed: 5, ResetEvery: 2000})
	serveOn(t, srv, l)
	pl := l.Listener.(*pipeListener)

	fcfg := DefaultFetcherConfig()
	fcfg.BackoffBase, fcfg.BackoffMax = time.Millisecond, 5*time.Millisecond
	f := newTestFetcher(t, func(context.Context) (net.Conn, error) { return pl.Dial(), nil }, fcfg)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := f.Fetch(ctx)
	if err != nil || !bytes.Equal(res.Payload, media) {
		t.Fatalf("fetch through resets: %v (stats %+v)", err, res.Stats)
	}
	if res.Stats.Reconnects == 0 {
		t.Fatal("no sweep was cut: ResetEvery too large for the object?")
	}
	awaitSessions(t, srv, 0)
	srv.Shutdown()
	snap := srv.Snapshot()
	checkAccounting(t, snap)
	if snap.BlocksShed == 0 {
		t.Fatal("cut sweeps shed nothing")
	}
	if snap.BlocksEncoded != 0 {
		t.Fatalf("%d blocks encoded: no session lived to ask for repair", snap.BlocksEncoded)
	}
}

// TestSweepLossyFetchRepairs: corruption without resets. The leaf reads the
// whole sweep, is short by the records that arrived damaged, asks for its
// deficits — again if the repair grant arrived damaged too — and finishes on
// repair records, with about as many dependent ones as a GF(2) repair code
// must cost, not a second sweep's worth.
func TestSweepLossyFetchRepairs(t *testing.T) {
	p := rlnc.Params{BlockCount: 32, BlockSize: 256}
	const segments = 2
	media := testMedia(t, segments*p.SegmentSize()-9, 66)
	srv := newSweepServer(t, media, p, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	serveOn(t, srv, l)

	// One damaged byte per ~2400 read: roughly one record in eight.
	dial, faults := faultnet.Dialer(faultnet.Config{Seed: 9, CorruptEvery: 2400}, func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", l.Addr().String())
	})
	sources := 0
	fcfg := DefaultFetcherConfig()
	fcfg.MaxAttempts = 1
	fcfg.RecordTap = func(b *rlnc.CodedBlock) {
		if b.IsBinary() && bytes.Count(b.Coeffs, []byte{1}) == 1 {
			sources++
		}
	}
	f := newTestFetcher(t, dial, fcfg)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := f.Fetch(ctx)
	if err != nil || !bytes.Equal(res.Payload, media) {
		t.Fatalf("lossy fetch: %v (stats %+v, faults %+v)", err, res.Stats, faults.View())
	}
	deficit := segments*p.BlockCount - sources
	if deficit == 0 || res.Stats.Corrupt == 0 {
		t.Fatalf("the sweep arrived whole (faults %+v): nothing to repair", faults.View())
	}
	if res.Stats.Reconnects != 0 || res.Stats.FramingResyncs != 0 {
		t.Fatalf("the session did not survive to repair: %+v", res.Stats)
	}
	if got := srv.needRecords.Load(); got == 0 {
		t.Fatal("need_records = 0: repair came without an ask")
	}
	if limit := deficit + 4*segments; res.Stats.Dependent > limit {
		t.Fatalf("%d dependent records to repair a deficit of %d, want at most %d", res.Stats.Dependent, deficit, limit)
	}
	awaitSessions(t, srv, 0)
	srv.Shutdown()
	snap := srv.Snapshot()
	checkAccounting(t, snap)
	if snap.BlocksEncoded == 0 {
		t.Fatal("repair came from nowhere: the pump encoded nothing")
	}
	t.Logf("deficit %d, %d records read, %d dependent, %d corrupt, %d need records; pump encoded %d", deficit, res.Stats.Records, res.Stats.Dependent, res.Stats.Corrupt, srv.needRecords.Load(), snap.BlocksEncoded)
}

// TestPushSessionsUnchanged: servers put the bytes on the wire they are meant
// to — the digests are of what follows the handshake for a client that writes
// nothing but, where it is swept, one ask: a push session's first grant,
// segments × (n + margin) records, which is all a client that writes nothing
// is sent; a dense origin's sweep, segments × n records, and the grant its ask
// for every segment whole buys.
//
// The source-backed servers — a relay's shape — send no flag and XNC1
// records, in either declared mode (it is the object source, not the mode,
// that makes a sweep); the declared mode sets their margin, and so how many
// records the grant holds. The media-backed dense server is a counter
// session: hsFlagCounter and its key (the seed) in the header, XNC3 records
// after it — its sweep, indices 0…n−1 of every segment in the table's order
// from the session's sweepStart, then repair indices from n, claimed a round
// at a time, round robin across segments. The digests were re-pinned when
// protocol v5 bounded a session by its credit, and the dense one again when
// the dense origin came to sweep; the records' encoding did not change. So
// that a digest cannot hide a format change, the handshake is pinned field by
// field and what each digest stands for is asserted too: every record after
// the handshake is of its session's encoding and declared shape, with a valid
// CRC, an in-range segment and — read or regenerated — no zero coefficient,
// and a counter session's indices run as its sweep and its rounds claimed
// them.
func TestPushSessionsUnchanged(t *testing.T) {
	p := rlnc.Params{BlockCount: 4, BlockSize: 32}
	media := testMedia(t, 2*p.SegmentSize()-5, 91)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, digest string
		hs           handshake // flags and key; the header is the server's
		swept        bool      // the session is swept every segment, then asks
		server       func() (*Server, error)
	}{
		{"dense", "99a68c1d95673c214619d2e3533089f1d39e3b4ede7c34630c174cc76be3ae13", handshake{flags: hsFlagCounter, key: 17}, true, func() (*Server, error) {
			cfg := DefaultServerConfig()
			cfg.Seed = 17
			return NewServerFromConfig(media, p, cfg)
		}},
		{"source", "e79283df5cc8f473d349a4675bc627f3adda98f86bca069338c69ee0aa75b116", handshake{}, false, func() (*Server, error) {
			src := newPoolSource(t, obj, 2*p.BlockCount)
			src.info.Mode = ModeSystematic
			return NewSourceServerFromConfig(src, DefaultServerConfig())
		}},
		{"source-dense", "1e70f0e36fc6b854eaacb95910bd3abba10125124d1f5b5e654438b775999807", handshake{}, false, func() (*Server, error) {
			return NewSourceServerFromConfig(newPoolSource(t, obj, 2*p.BlockCount), DefaultServerConfig())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := tc.server()
			if err != nil {
				t.Fatal(err)
			}
			counted := &readCountListener{Listener: newPipeListener()}
			serveOn(t, srv, counted)
			pl := counted.Listener.(*pipeListener)

			want := tc.hs
			want.hdr = srv.Info()
			opening := appendSessionHeader(nil, want)
			size, _ := want.recordSizes()
			recLen := recordLenLen + int(size)
			n := p.BlockCount
			grant := len(obj.Segments) * (n + grantMargin(want.hdr.Mode))
			sweep := 0
			if tc.swept {
				sweep = len(obj.Segments) * n
			}
			conn := pl.Dial()
			head := make([]byte, len(opening)+(sweep+grant)*recLen)
			swept := len(opening) + sweep*recLen
			if _, err := io.ReadFull(conn, head[:swept]); err != nil {
				t.Fatal(err)
			}
			if tc.swept {
				if _, err := conn.Write(appendNeed(nil, []uint32{uint32(n), uint32(n)})); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := io.ReadFull(conn, head[swept:]); err != nil {
				t.Fatal(err)
			}
			conn.Close()
			if hs, err := readHandshake(bytes.NewReader(head)); err != nil || hs.flags != want.flags || hs.key != want.key || hs.tctx != (traceContext{}) {
				t.Fatalf("handshake flags %#x, key %#x, trace %+v, %v", hs.flags, hs.key, hs.tctx, err)
			}
			rest, ok := bytes.CutPrefix(head, opening)
			if !ok {
				t.Fatalf("the stream does not open with the session header: % x", head[:len(opening)])
			}
			if sum := sha256.Sum256(rest); hex.EncodeToString(sum[:]) != tc.digest {
				t.Fatalf("the records after the handshake changed: digest %x", sum)
			}
			var segs []uint32
			var indices []uint32
			for ; len(rest) >= recLen; rest = rest[recLen:] {
				var b rlnc.CodedBlock
				if got := binary.BigEndian.Uint32(rest); got != size {
					t.Fatalf("record length prefix %d, want %d", got, size)
				}
				rec := rest[recordLenLen:recLen]
				if want.counter() {
					err = b.ParseView(rec, rlnc.RecordFormat{Params: p, Counter: true, Key: want.key})
					indices = append(indices, binary.BigEndian.Uint32(rec[16:]))
				} else {
					err = b.UnmarshalBinary(rec)
				}
				if err != nil || b.Params() != p {
					t.Fatalf("record is not a block of its session's encoding at %+v: %v (% x)", p, err, rec)
				}
				if int(b.SegmentID) >= len(obj.Segments) || bytes.IndexByte(b.Coeffs, 0) >= 0 {
					t.Fatalf("record of segment %d with coefficients % x", b.SegmentID, b.Coeffs)
				}
				segs = append(segs, b.SegmentID)
			}
			// The sweep: the table's entries from the first session's
			// sweepStart on, wrapping. Then rounds of up to max(4, n/4) (4
			// here) records, segment after segment, each as many as the
			// segment's credit still allows, indices from n on a swept
			// session.
			var wantSegs, wantIdx []uint32
			for i := range sweep {
				idx := (sweepStart(1, sweep) + i) % sweep
				wantSegs = append(wantSegs, uint32(idx/n))
				wantIdx = append(wantIdx, uint32(idx%n))
			}
			first := 0
			if tc.swept {
				first = n
			}
			credit := make([]int, len(obj.Segments))
			for i := range credit {
				credit[i] = n + grantMargin(want.hdr.Mode)
			}
			for len(wantSegs) < sweep+grant {
				for seg := range credit {
					for range min(4, credit[seg]) {
						wantSegs = append(wantSegs, uint32(seg))
						wantIdx = append(wantIdx, uint32(first+n+grantMargin(want.hdr.Mode)-credit[seg]))
						credit[seg]--
					}
				}
			}
			if !slices.Equal(segs, wantSegs) || (want.counter() && !slices.Equal(indices, wantIdx)) {
				t.Fatalf("segments %v, indices %v: want %v and %v", segs, indices, wantSegs, wantIdx)
			}

			// A fetch reads n records a segment, and asks only if they left it
			// short; a drain client asks for a fresh grant once it has read
			// its first.
			fetchConn := &writeCountConn{Conn: pl.Dial()}
			payload, stats, err := Fetch(context.Background(), fetchConn)
			if err != nil || !bytes.Equal(payload, media) {
				t.Fatalf("fetch: %v", err)
			}
			if asked := fetchConn.bytes.Load() != 0; asked != (stats.Records > len(obj.Segments)*n) {
				t.Fatalf("fetch read %d records and wrote %d bytes", stats.Records, fetchConn.bytes.Load())
			}
			rawConn := &writeCountConn{Conn: pl.Dial()}
			rc, err := NewRawClient(rawConn)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3*grant; i++ {
				if _, err := rc.Next(); err != nil {
					t.Fatal(err)
				}
			}
			rc.Close()
			if w := rawConn.bytes.Load(); w == 0 || w%int64(needLen(len(obj.Segments))) != 0 {
				t.Fatalf("drain client wrote %d bytes, want whole need records", w)
			}
		})
	}
}

// TestRawClientKeepsAsking: a drain client on a sweep session reads the sweep,
// then keeps a fresh grant owed — it asks again with every record it reads —
// so the pump's repair stream never runs dry under it.
func TestRawClientKeepsAsking(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 2*p.SegmentSize(), 67)
	srv := newSweepServer(t, media, p, nil)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	serveOn(t, srv, l)
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRawClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	const records = 5 * 2 * 8
	for i := 0; i < records; i++ {
		if _, err := rc.Next(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	// The asks of the last records may still be in flight.
	asks := int64(records - 2*p.BlockCount)
	for deadline := time.Now().Add(10 * time.Second); srv.needRecords.Load() < asks-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("need_records = %d, want about %d", srv.needRecords.Load(), asks)
		}
	}
	if srv.Snapshot().BlocksEncoded == 0 {
		t.Fatal("records past the sweep did not come from the pump")
	}
}

// What a peer can cost a sweep server: one sweep, at most one need record's
// bytes read, and one goroutine until the write-deadline budget runs out.

// TestSweepPeerWritesGarbage: anything but a need record after the sweep ends
// the session, after at most one need record's bytes read, without waking the
// pump.
func TestSweepPeerWritesGarbage(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 2*p.SegmentSize(), 68)
	bound := needLen(2)
	bad := appendNeed(nil, []uint32{1, 0})
	bad[13] = 1 // a deficit changed, checksum stale
	for name, junk := range map[string][]byte{
		"junk":       bytes.Repeat([]byte{0xA5}, 64),
		"short":      []byte("XNC"),
		"bad crc":    bad,
		"magic only": append([]byte(needMagic), make([]byte, 60)...),
		"long body":  append(appendControl(nil, needMagic, make([]byte, 64)), make([]byte, 64)...),
	} {
		t.Run(name, func(t *testing.T) {
			srv := newSweepServer(t, media, p, func(c *ServerConfig) { c.WriteDeadline = time.Minute })
			counted := &readCountListener{Listener: newPipeListener()}
			serveOn(t, srv, counted)
			c := dialSweep(t, counted.Listener.(*pipeListener).Dial())
			c.read(c.total())
			go func() {
				c.conn.Write(junk) //nolint:errcheck // cut short by the server's close
				if len(junk) < bound {
					c.conn.Close() // a short record only ends with the stream
				}
			}()
			if len(junk) >= bound {
				c.awaitClosed(10 * time.Second)
			}
			awaitSessions(t, srv, 0)
			if got := counted.bytes.Load(); got > int64(bound) {
				t.Fatalf("server read %d bytes of garbage, want at most %d", got, bound)
			}
			if srv.needRecords.Load() != 0 || srv.Snapshot().BlocksEncoded != 0 {
				t.Fatalf("garbage woke the pump: need_records %d, encoded %d", srv.needRecords.Load(), srv.Snapshot().BlocksEncoded)
			}
		})
	}
}

// TestSweepPeerGoesSilent: a peer that neither hangs up nor asks holds its
// slot and its goroutine for the write-deadline budget and no longer.
func TestSweepPeerGoesSilent(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 2*p.SegmentSize(), 69)
	const budget = 120 * time.Millisecond
	srv := newSweepServer(t, media, p, func(c *ServerConfig) {
		c.MaxSessions = 1
		c.WriteDeadline = budget
	})
	counted := &readCountListener{Listener: newPipeListener()}
	serveOn(t, srv, counted)
	pl := counted.Listener.(*pipeListener)

	c := dialSweep(t, pl.Dial())
	c.read(c.total())
	waiting := runtime.NumGoroutine() // the session's goroutine is parked in its read
	if took := c.awaitClosed(10 * time.Second); took < budget/2 {
		t.Fatalf("silent peer dropped after %v, budget %v", took, budget)
	}
	awaitSessions(t, srv, 0)
	if counted.bytes.Load() != 0 || srv.needRecords.Load() != 0 {
		t.Fatalf("silence read as %d bytes, %d need records", counted.bytes.Load(), srv.needRecords.Load())
	}
	// The slot is free again: the cap of one admits the next peer.
	next := dialSweep(t, pl.Dial())
	next.conn.Close()
	awaitSessions(t, srv, 0)
	for limit := time.Now().Add(5 * time.Second); runtime.NumGoroutine() >= waiting; time.Sleep(time.Millisecond) {
		if time.Now().After(limit) {
			t.Fatalf("goroutines: %d with the session waiting, %d after it was dropped", waiting, runtime.NumGoroutine())
		}
	}
}

// TestSweepPeerFloods: the server reads nothing while it sweeps, so a peer that
// writes throughout is heard only once its reader starts after the sweep —
// which finds no need record and ends the session.
func TestSweepPeerFloods(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 2*p.SegmentSize(), 70)
	srv := newSweepServer(t, media, p, func(c *ServerConfig) { c.WriteDeadline = time.Minute })
	counted := &readCountListener{Listener: newPipeListener()}
	serveOn(t, srv, counted)
	c := dialSweep(t, counted.Listener.(*pipeListener).Dial())

	flooded := make(chan int64, 1)
	go func() {
		var n int64
		for chunk := bytes.Repeat([]byte{0xEE}, 4096); ; {
			w, err := c.conn.Write(chunk)
			n += int64(w)
			if err != nil {
				flooded <- n
				return
			}
		}
	}()
	c.read(c.total() - 1)
	if calls := counted.calls.Load(); calls != 0 {
		t.Fatalf("server read %d times during its sweep", calls)
	}
	c.read(1)
	c.awaitClosed(10 * time.Second)
	awaitSessions(t, srv, 0)
	if got, sent := counted.bytes.Load(), <-flooded; got > int64(needLen(2)) || sent > int64(needLen(2)) {
		t.Fatalf("server read %d bytes of a flood (peer got %d through), want at most %d", got, sent, needLen(2))
	}
	snap := srv.Snapshot()
	if snap.BlocksEncoded != 0 || snap.BlocksSent != int64(c.total()) || srv.needRecords.Load() != 0 {
		t.Fatalf("flood cost more than a sweep: encoded %d sent %d need %d", snap.BlocksEncoded, snap.BlocksSent, srv.needRecords.Load())
	}
}

// TestSweepCoversAcrossCutSessions: a client whose every session is cut after a
// handful of records still sees every source block within a bounded number of
// reconnects — the property a start-at-zero sweep lacks.
func TestSweepCoversAcrossCutSessions(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 4*p.SegmentSize(), 71)
	srv := newSweepServer(t, media, p, nil)
	l := startPipeServer(t, srv)
	seen := make(map[int]bool)
	const perSession, limit = 7, 40
	sessions := 0
	for ; len(seen) < 4*p.BlockCount && sessions < limit; sessions++ {
		c := dialSweep(t, l.Dial())
		for _, idx := range c.read(perSession) {
			seen[idx] = true
		}
		c.conn.Close()
	}
	if len(seen) < 4*p.BlockCount {
		t.Fatalf("%d sessions of %d records covered %d of %d blocks", sessions, perSession, len(seen), 4*p.BlockCount)
	}
	t.Logf("%d blocks covered in %d sessions of %d records", len(seen), sessions, perSession)
}

// TestFlushRecords: one flush covers flushBytes of dense records, capped by
// the queue depth — 16 records at n=128, k=4096, the whole 64-record queue at
// n=32, k=256 — and a systematic session's sweep goes out in flushes of the
// same size: one netio.record_send span per flush.
func TestFlushRecords(t *testing.T) {
	for _, tc := range []struct {
		p           rlnc.Params
		depth, want int
	}{
		{rlnc.Params{BlockCount: 128, BlockSize: 4096}, 64, 16},
		{rlnc.Params{BlockCount: 32, BlockSize: 256}, 64, 64},
		{rlnc.Params{BlockCount: 32, BlockSize: 256}, 24, 24},
		{rlnc.Params{BlockCount: 128, BlockSize: 4096}, 1, 1},
	} {
		if got := flushRecords(frameSize(tc.p), tc.depth); got != tc.want {
			t.Errorf("n=%d k=%d QueueDepth %d: %d records per flush, want %d", tc.p.BlockCount, tc.p.BlockSize, tc.depth, got, tc.want)
		}
		const segments = 3
		media := testMedia(t, segments*tc.p.SegmentSize(), 71)
		srv := newSweepServer(t, media, tc.p, func(c *ServerConfig) { c.QueueDepth = tc.depth })
		if srv.flushRecs != tc.want {
			t.Fatalf("n=%d k=%d QueueDepth %d: server flushes %d records, want %d", tc.p.BlockCount, tc.p.BlockSize, tc.depth, srv.flushRecs, tc.want)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		serveOn(t, srv, l)
		reg := obs.NewRegistry()
		obs.SetSink(reg)
		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			obs.SetSink(nil)
			t.Fatal(err)
		}
		c := dialSweep(t, conn)
		total := c.total()
		c.read(total)
		conn.Close()
		awaitSessions(t, srv, 0)
		obs.SetSink(nil)
		flushes, _ := reg.HistogramView("netio.record_send")
		if want := (total + tc.want - 1) / tc.want; flushes.Count != int64(want) {
			t.Errorf("n=%d k=%d QueueDepth %d: a %d-record sweep took %d flushes, want %d", tc.p.BlockCount, tc.p.BlockSize, tc.depth, total, flushes.Count, want)
		}
	}
}
