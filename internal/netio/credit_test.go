package netio

import (
	"bytes"
	"context"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"extremenc/internal/rlnc"
)

// Credit-bounded sessions: what a session is owed, what a satisfied server
// costs, and what a silent, flooding or lying peer can buy. These tests run
// over net.Pipe, where the server's reads are counted at the connection.

// creditServer is a dense pool server (newPoolServer) over a two-segment
// object of p, served on a counting pipe listener for the lifetime of the test.
func creditServer(t *testing.T, p rlnc.Params, mutate func(*ServerConfig)) (*Server, *readCountListener) {
	t.Helper()
	media := testMedia(t, 2*p.SegmentSize(), 81)
	cfg := DefaultServerConfig()
	cfg.WriteDeadline = time.Minute // no idle drop under the test
	if mutate != nil {
		mutate(&cfg)
	}
	srv := newPoolServer(t, media, p, cfg)
	counted := &readCountListener{Listener: newPipeListener()}
	serveOn(t, srv, counted)
	return srv, counted
}

// drainRecords reads records from conn, after its handshake, until the stream
// fails, and sends how many it read.
func drainRecords(conn net.Conn, size int) <-chan int {
	done := make(chan int, 1)
	go func() {
		rec := make([]byte, recordLenLen+size)
		n := 0
		for {
			if _, err := io.ReadFull(conn, rec); err != nil {
				done <- n
				return
			}
			n++
		}
	}()
	return done
}

// readSweep reads the handshake and the sweep of a creditServer session, two
// segments of n records, and then writes need unless it is nil.
func readSweep(t *testing.T, conn net.Conn, p rlnc.Params, need []byte) {
	t.Helper()
	if _, err := readHandshake(conn); err != nil {
		t.Fatal(err)
	}
	sweep := make([]byte, 2*p.BlockCount*(recordLenLen+rlnc.WireSize(p)))
	if _, err := io.ReadFull(conn, sweep); err != nil {
		t.Fatal(err)
	}
	if need != nil {
		if _, err := conn.Write(need); err != nil {
			t.Fatal(err)
		}
	}
}

// awaitSent polls until the server has sent want records, failing if it sends
// more or never gets there.
func awaitSent(t *testing.T, srv *Server, want int64) Snapshot {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		snap := srv.Snapshot()
		if snap.BlocksSent > want {
			t.Fatalf("sent %d records, want %d", snap.BlocksSent, want)
		}
		if snap.BlocksSent == want {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("sent %d records after 10s, want %d", snap.BlocksSent, want)
		}
	}
}

// exactLedger demands offered == sent + shed, server-wide and per session.
func exactLedger(t *testing.T, snap Snapshot) {
	t.Helper()
	if !snap.Consistent() {
		t.Fatalf("offered %d != sent %d + shed %d", snap.BlocksOffered, snap.BlocksSent, snap.BlocksShed)
	}
	for _, ss := range snap.PerSession {
		if ss.Offered != ss.Sent+ss.Shed {
			t.Fatalf("session %d: offered %d != sent %d + shed %d", ss.ID, ss.Offered, ss.Sent, ss.Shed)
		}
	}
}

// TestSatisfiedServerParks: once every live session has read its sweep and
// the grant of its one ask, and asked for nothing more, the pump parks —
// nothing encoded, no stall charged — however long the sessions stay.
func TestSatisfiedServerParks(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	srv, counted := creditServer(t, p, nil)
	pl := counted.Listener.(*pipeListener)
	n := uint32(p.BlockCount)
	sweep, grant := int64(2*p.BlockCount), int64(2*(p.BlockCount+marginDense))
	for i := 0; i < 2; i++ {
		conn := pl.Dial()
		defer conn.Close()
		readSweep(t, conn, p, appendNeed(nil, []uint32{n, n}))
		drainRecords(conn, rlnc.WireSize(p))
	}
	before := awaitSent(t, srv, 2*(sweep+grant))
	time.Sleep(100 * time.Millisecond)
	after := srv.Snapshot()
	if after.BlocksEncoded != before.BlocksEncoded || after.BlocksSent != 2*(sweep+grant) {
		t.Fatalf("a satisfied server went on: encoded %d → %d, sent %d", before.BlocksEncoded, after.BlocksEncoded, after.BlocksSent)
	}
	if after.EncodeStall != 0 {
		t.Fatalf("a parked pump charged %v of stall", after.EncodeStall)
	}
	if after.Sessions != 2 {
		t.Fatalf("%d live sessions, want 2", after.Sessions)
	}
	exactLedger(t, after)
}

// TestCreditSilentPeer: a session that reads its sweep, asks once for every
// segment whole and then neither closes nor asks again is sent exactly the
// sweep and segments × (n + margin) records, and the server reads nothing
// from it but the one need record.
func TestCreditSilentPeer(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	srv, counted := creditServer(t, p, nil)
	conn := counted.Listener.(*pipeListener).Dial()
	n := uint32(p.BlockCount)
	readSweep(t, conn, p, appendNeed(nil, []uint32{n, n}))
	read := drainRecords(conn, rlnc.WireSize(p))
	sweep, grant := int64(2*p.BlockCount), int64(2*(p.BlockCount+marginDense))
	exactLedger(t, awaitSent(t, srv, sweep+grant))
	time.Sleep(50 * time.Millisecond)
	exactLedger(t, awaitSent(t, srv, sweep+grant))
	conn.Close()
	if got := <-read; int64(got) != grant {
		t.Fatalf("peer read %d records past its sweep, want %d", got, grant)
	}
	awaitSessions(t, srv, 0)
	srv.Shutdown() // waits for the sessions' teardown sheds
	snap := srv.Snapshot()
	checkAccounting(t, snap)
	if snap.BlocksSent != sweep+grant || counted.bytes.Load() != int64(needLen(2)) {
		t.Fatalf("sent %d records, read %d bytes: want %d and one need record's %d", snap.BlocksSent, counted.bytes.Load(), sweep+grant, needLen(2))
	}
}

// TestCreditSilentPeerIdlesOut: a session owed nothing with nothing queued is
// dropped once it stays silent past the write-deadline budget: one that reads
// its sweep and never asks.
func TestCreditSilentPeerIdlesOut(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	const deadline = 60 * time.Millisecond
	srv, counted := creditServer(t, p, func(c *ServerConfig) {
		c.WriteDeadline = deadline
	})
	conn := counted.Listener.(*pipeListener).Dial()
	if _, err := readHandshake(conn); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	read := drainRecords(conn, rlnc.WireSize(p))
	if got := <-read; got != 2*p.BlockCount {
		t.Fatalf("peer read %d records before the server hung up, want its sweep of %d", got, 2*p.BlockCount)
	}
	if took := time.Since(t0); took < deadline/2 {
		t.Fatalf("silent peer dropped after %v", took)
	}
	awaitSessions(t, srv, 0)
	srv.Shutdown()
	checkAccounting(t, srv.Snapshot())
}

// TestCreditFloodNeverRaisesCredit: however many valid need records a peer
// sends — deficits above n included — no segment is ever owed more than
// n + margin, and every record offered is sent or shed.
func TestCreditFloodNeverRaisesCredit(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	srv, counted := creditServer(t, p, nil)
	conn := counted.Listener.(*pipeListener).Dial()
	readSweep(t, conn, p, nil)
	read := drainRecords(conn, rlnc.WireSize(p))
	awaitSessions(t, srv, 1)
	var ss *session
	srv.mu.Lock()
	for s := range srv.sessions {
		ss = s
	}
	srv.mu.Unlock()
	const asks = 300
	flooded := make(chan error, 1)
	go func() {
		need := appendNeed(nil, []uint32{1 << 31, uint32(p.BlockCount)})
		for i := 0; i < asks; i++ {
			if _, err := conn.Write(need); err != nil {
				flooded <- err
				return
			}
		}
		flooded <- nil
	}()
	peak := int32(0)
	for waiting := true; waiting; {
		select {
		case err := <-flooded:
			if err != nil {
				t.Fatal(err)
			}
			waiting = false
		default:
		}
		for i := range ss.credit {
			peak = max(peak, ss.credit[i].Load())
		}
	}
	if peak > srv.grantCap {
		t.Fatalf("credit reached %d, cap %d", peak, srv.grantCap)
	}
	for deadline := time.Now().Add(10 * time.Second); srv.needRecords.Load() != asks; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("need_records = %d, want %d", srv.needRecords.Load(), asks)
		}
	}
	conn.Close()
	got := <-read
	awaitSessions(t, srv, 0)
	srv.Shutdown() // waits for the sessions' teardown sheds
	snap := srv.Snapshot()
	checkAccounting(t, snap)
	// The sweep, and at most one grant an ask.
	if limit := int64(2*p.BlockCount) + int64(asks)*int64(srv.grantCap)*2; snap.BlocksOffered > limit || int64(got) > snap.BlocksSent {
		t.Fatalf("offered %d (limit %d), peer read %d of %d sent", snap.BlocksOffered, limit, got, snap.BlocksSent)
	}
	if counted.bytes.Load() != int64(asks*needLen(2)) {
		t.Fatalf("server read %d bytes of %d need records", counted.bytes.Load(), asks)
	}
}

// TestCreditBadNeedEndsSession: a malformed, truncated or over-bound need
// record ends the session after at most one need record's bytes read, with
// the ledger exact.
func TestCreditBadNeedEndsSession(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	good := appendNeed(nil, []uint32{2, 0})
	stale := bytes.Clone(good)
	stale[13] ^= 1
	over := binary.BigEndian.AppendUint32([]byte(needMagic), 1<<20)
	for name, junk := range map[string][]byte{
		"bad crc":       stale,
		"wrong count":   appendNeed(nil, []uint32{2}),
		"over bound":    append(over, make([]byte, 64)...),
		"truncated":     good[:len(good)-3],
		"another magic": appendControl(nil, stateMagic, make([]byte, 12)),
	} {
		t.Run(name, func(t *testing.T) {
			srv, counted := creditServer(t, p, nil)
			conn := counted.Listener.(*pipeListener).Dial()
			if _, err := readHandshake(conn); err != nil {
				t.Fatal(err)
			}
			read := drainRecords(conn, rlnc.WireSize(p))
			go func() {
				conn.Write(junk) //nolint:errcheck // cut short by the server's close
				if name == "truncated" {
					conn.Close() // a short record only ends with the stream
				}
			}()
			<-read
			awaitSessions(t, srv, 0)
			if got := counted.bytes.Load(); got > int64(needLen(2)) {
				t.Fatalf("server read %d bytes, want at most %d", got, needLen(2))
			}
			if srv.needRecords.Load() != 0 {
				t.Fatalf("need_records = %d", srv.needRecords.Load())
			}
			srv.Shutdown()
			checkAccounting(t, srv.Snapshot())
		})
	}
}

// repeatSource is a counter source whose sweep repeats each even index in
// place of the odd one after it — so a session is swept half of every
// segment's rank — and that claims half of every batch's indices again in its
// next batch: a grant of it carries dependent records.
type repeatSource struct{ *counterSource }

func (r repeatSource) Sweep(seg, i int) []byte { return r.counterSource.Sweep(seg, i&^1) }

func (r repeatSource) Records(seg int, frames [][]byte) int {
	k := r.counterSource.Records(seg, frames)
	r.next[seg] -= uint32(k / 2)
	return k
}

// TestDependentGrantCostsAReask: a counter session whose records repeat
// indices leaves a fetch short when its sweep, and then its grant, is read; it
// asks for its deficits again, and finishes byte-identical.
func TestDependentGrantCostsAReask(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 64}
	media := testMedia(t, 2*p.SegmentSize(), 82)
	srv, err := NewServerFromConfig(media, p, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv.src = repeatSource{srv.src.(*counterSource)}
	l := startPipeServer(t, srv)
	fcfg := DefaultFetcherConfig()
	fcfg.MaxAttempts = 1
	f := newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := f.Fetch(ctx)
	if err != nil || !bytes.Equal(res.Payload, media) {
		t.Fatalf("fetch: %v (stats %+v)", err, res.Stats)
	}
	if res.Stats.Dependent == 0 || srv.needRecords.Load() < 2 {
		t.Fatalf("dependent %d, need records %d: the grant never fell short", res.Stats.Dependent, srv.needRecords.Load())
	}
	awaitSessions(t, srv, 0)
	srv.Shutdown()
	checkAccounting(t, srv.Snapshot())
	t.Logf("%d records, %d dependent, %d need records", res.Stats.Records, res.Stats.Dependent, srv.needRecords.Load())
}

// TestPumpParkDoesNotAllocate: a timed park — behind full queues, where the
// wait is charged as stall — reuses the pump's one timer, so a pump that
// outpaces its writers parks without making garbage.
func TestPumpParkDoesNotAllocate(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	srv, err := NewServerFromConfig(testMedia(t, p.SegmentSize(), 72), p, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown()
	if got := testing.AllocsPerRun(20, func() {
		if !srv.park(true) {
			t.Fatal("a live server's park reported it stopping")
		}
	}); got != 0 {
		t.Errorf("%.2f allocations per park cycle, want 0", got)
	}
	if stall := srv.Snapshot().EncodeStall; stall < 20*2*time.Millisecond {
		t.Errorf("%v of encode stall after 21 parks behind full queues, want ≥ 40ms", stall)
	}
}
