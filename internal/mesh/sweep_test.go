package mesh

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"extremenc/internal/faultnet"
	"extremenc/internal/netio"
	"extremenc/internal/rlnc"
)

// readSession reads a session header and then count records off conn, each
// with its length prefix, and returns the header's flags word and the records.
func readSession(t *testing.T, conn net.Conn, count int) (flags uint32, recs [][]byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	head := make([]byte, 8)
	if _, err := io.ReadFull(conn, head); err != nil || string(head[:4]) != "XNCP" {
		t.Fatalf("session header: %v (% x)", err, head)
	}
	body := make([]byte, binary.BigEndian.Uint32(head[4:])+4)
	if _, err := io.ReadFull(conn, body); err != nil {
		t.Fatalf("session header: %v", err)
	}
	flags = binary.BigEndian.Uint32(body[28:])
	return flags, readRecords(t, conn, count)
}

// readRecords reads count records off conn, each with its length prefix.
func readRecords(t *testing.T, conn net.Conn, count int) (recs [][]byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	for range count {
		rec := make([]byte, 4)
		if _, err := io.ReadFull(conn, rec); err != nil {
			t.Fatalf("record %d of %d: %v", len(recs), count, err)
		}
		rec = append(rec, make([]byte, binary.BigEndian.Uint32(rec))...)
		if _, err := io.ReadFull(conn, rec[4:]); err != nil {
			t.Fatalf("record %d of %d: %v", len(recs), count, err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// recordSegment parses a framed record's segment.
func recordSegment(t *testing.T, rec []byte) uint32 {
	t.Helper()
	var b rlnc.CodedBlock
	if err := b.UnmarshalRecord(rec[4:]); err != nil {
		t.Fatalf("record: %v", err)
	}
	return b.SegmentID
}

// awaitIdle waits until the relay's server has no live session, so its ledger
// has settled.
func awaitIdle(t *testing.T, relay *Relay) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); relay.Server().Snapshot().Sessions != 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("relay still has %d sessions", relay.Server().Snapshot().Sessions)
		}
	}
}

// TestRelaySweepServesHeldRows: a fresh leaf on a relay holding every segment
// whole reads exactly n × segments records — the relay's held records, each
// once — and decodes byte-identical with nothing recoded: nothing is encoded
// and the ledger balances. The held records are the origin's sweep byte for
// byte, as it arrived: over a dense origin its counter records 0…n−1, under
// the key the relay re-declares (hsFlagCounter set); over a systematic origin
// its source blocks as XNC2, with no flag.
func TestRelaySweepServesHeldRows(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	const segments = 3
	total := segments * p.BlockCount
	for _, tc := range []struct {
		name  string
		xor   bool
		flags uint32
		magic string
	}{{"dense", false, 1 << 2, "XNC3"}, {"xor", true, 0, "XNC2"}} {
		t.Run(tc.name, func(t *testing.T) {
			relay := warmRelay(t, p, segments, tc.xor)
			media := warmMedia(t, p, segments)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var mu sync.Mutex
			var taps []*tapConn
			f, err := netio.NewFetcherFromConfig(tapDial(tcpDial(relay.Addr()), &taps, &mu), netio.DefaultFetcherConfig())
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Fetch(ctx)
			if err != nil || !bytes.Equal(res.Payload, media) {
				t.Fatalf("fetch through a whole relay: %v (stats %+v)", err, res.Stats)
			}
			if res.Stats.Records != total || res.Stats.Dependent != 0 || len(taps) != 1 {
				t.Fatalf("%d records (%d dependent) over %d connections, want %d, 0 over 1", res.Stats.Records, res.Stats.Dependent, len(taps), total)
			}
			table := map[string]bool{}
			for seg := range segments {
				for i := range p.BlockCount {
					table[string((*relaySource)(relay).Sweep(seg, i))] = true
				}
			}
			if origin := originSweep(t, p, media, warmSeed, tc.xor); !maps.Equal(table, origin) {
				t.Fatal("the relay's held records are not the origin's sweep, byte for byte")
			}
			taps[0].mu.Lock()
			wire := taps[0].buf
			taps[0].mu.Unlock()
			flags, magics := hopRecords(t, wire)
			if flags != tc.flags || magics[tc.magic] != total || len(magics) != 1 {
				t.Fatalf("flags %#x and records %v, want flags %#x and %d %s records", flags, magics, tc.flags, total, tc.magic)
			}
			for rest := wire[8+binary.BigEndian.Uint32(wire[4:])+4:]; len(rest) > 0; {
				rec := rest[:4+binary.BigEndian.Uint32(rest)]
				if !table[string(rec)] {
					t.Fatal("a record on the wire is not a held record of the relay's")
				}
				delete(table, string(rec))
				rest = rest[len(rec):]
			}
			awaitIdle(t, relay)
			ledger := relay.Ledger()
			if !ledger.Consistent() || ledger.BlocksSent != int64(total) || ledger.BlocksEncoded != 0 {
				t.Fatalf("ledger %+v: want %d sent and none encoded", ledger, total)
			}
		})
	}
}

// originSweep is the sweep of an origin of media at p under seed, framed as it
// travels: counter records 0…n−1 of every segment under the seed as key, or
// over a systematic origin the source blocks as XNC2.
func originSweep(t testing.TB, p rlnc.Params, media []byte, seed int64, xor bool) map[string]bool {
	t.Helper()
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	sweep := map[string]bool{}
	for _, seg := range obj.Segments {
		for i := range p.BlockCount {
			var rec []byte
			if xor {
				coeffs := make([]byte, p.BlockCount)
				coeffs[i] = 1
				if rec, err = netio.FrameRecord(&rlnc.CodedBlock{SegmentID: seg.ID(), Coeffs: coeffs, Payload: seg.Block(i)}, netio.ModeSystematic); err != nil {
					t.Fatal(err)
				}
			} else {
				body := rlnc.CounterRecord(seg, uint64(seed), uint32(i))
				rec = append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
			}
			sweep[string(rec)] = true
		}
	}
	return sweep
}

// handRelay is a relay with no upstream — its fetcher is never dialed — that
// has learned a dense session of media at p in segments segments, as its first
// upstream handshake would have told it: a counter session under key when
// counter is set.
func handRelay(t *testing.T, p rlnc.Params, media []byte, segments int, key uint64, counter bool) *Relay {
	t.Helper()
	up, err := netio.NewFetcherFromConfig(tcpDial("127.0.0.1:1"), netio.DefaultFetcherConfig()) // never dialed
	if err != nil {
		t.Fatal(err)
	}
	r := &Relay{upFetch: up, ready: make(chan struct{})}
	r.onSession(netio.SessionInfo{Params: p, Segments: segments, Length: int64(len(media)), Mode: netio.ModeDense})
	r.key, r.counter = key, counter
	return r
}

// absorbRecord feeds the relay one upstream record, rec without its length
// prefix, parsed into b as its fetch would parse it under format.
func absorbRecord(r *Relay, b *rlnc.CodedBlock, rec []byte, format rlnc.RecordFormat) (bool, error) {
	if err := b.ParseView(rec, format); err != nil {
		return false, err
	}
	return (*relayBank)(r).Absorb(b, rec)
}

// absorbBlock feeds the relay b as an upstream XNC1 record.
func absorbBlock(r *Relay, b *rlnc.CodedBlock) (bool, error) {
	rec, err := b.MarshalBinary()
	if err != nil {
		return false, err
	}
	return (*relayBank)(r).Absorb(b, rec)
}

// partialKey is the key of partialRelay's counter session.
const partialKey = 0xFEED

// partialRelay is a hand relay of a counter session under partialKey whose
// segment seg is filled to ranks[seg] by absorbing its counter records, as
// its upstream fetch would, serving on a loopback listener.
func partialRelay(t *testing.T, p rlnc.Params, media []byte, ranks []int) *Relay {
	t.Helper()
	r := handRelay(t, p, media, len(ranks), partialKey, true)
	for seg, rank := range ranks {
		fillSegment(t, r, media, seg, rank)
	}
	srv, err := netio.NewSourceServerFromConfig((*relaySource)(r), netio.DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	r.srv, r.ln = srv, ln
	r.mu.Unlock()
	go srv.Serve(context.Background(), ln)
	t.Cleanup(func() {
		srv.Shutdown()
		ln.Close()
	})
	return r
}

// fillSegment absorbs counter records of segment seg of media under
// partialKey into a partialRelay until it holds rank of them, the segment's
// records from index 0 on — each at most once, whatever the relay held.
func fillSegment(t *testing.T, r *Relay, media []byte, seg, rank int) {
	t.Helper()
	p := r.info.Params
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	format := rlnc.RecordFormat{Params: p, Counter: true, Key: partialKey}
	var b rlnc.CodedBlock
	for index := uint32(0); (*relayBank)(r).Rank(uint32(seg)) < rank; index++ {
		if _, err := absorbRecord(r, &b, rlnc.CounterRecord(obj.Segments[seg], partialKey, index), format); err != nil {
			t.Fatal(err)
		}
	}
	if r.whole[seg].Load() != (rank == p.BlockCount) {
		t.Fatalf("segment %d at rank %d: whole %v", seg, rank, r.whole[seg].Load())
	}
}

// TestRelaySweepPartialSegments: a relay of a counter session, whole in
// segments 0 and 2 and at half rank in segment 1, sweeps a session every
// record it holds — its held counter records, as they arrived — and then
// writes nothing until segment 1 fills; then the rest of segment 1. The
// session reads 3n held records, each once, and nothing is recoded. A leaf
// that dials the relay then decodes byte-identical from its sweep alone.
func TestRelaySweepPartialSegments(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 128}
	n := p.BlockCount
	media := testMedia(t, 3*p.SegmentSize(), 44)
	relay := partialRelay(t, p, media, []int{n, n / 2, n})
	conn, err := net.Dial("tcp", relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	flags, recs := readSession(t, conn, 2*n+n/2)
	if flags != 1<<2 {
		t.Fatalf("flags %#x, want the counter flag", flags)
	}
	// Nothing more is held: the next read waits.
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if k, err := conn.Read(make([]byte, 1)); k != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read %d bytes (%v) past the held records", k, err)
	}
	if (*relaySource)(relay).Sweep(1, n/2) != nil {
		t.Fatal("a record the relay does not hold was swept")
	}
	fillSegment(t, relay, media, 1, n)
	recs = append(recs, readRecords(t, conn, n/2)...)
	table := map[string]bool{}
	for seg := range 3 {
		for i := range n {
			table[string((*relaySource)(relay).Sweep(seg, i))] = true
		}
	}
	format := rlnc.RecordFormat{Params: p, Counter: true, Key: partialKey}
	for i, rec := range recs {
		var b rlnc.CodedBlock
		if err := b.ParseView(rec[4:], format); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !table[string(rec)] || string(rec[4:8]) != "XNC3" {
			t.Fatalf("sweep record %d (segment %d, %q) is not a held counter record, or was written twice", i, b.SegmentID, rec[4:8])
		}
		delete(table, string(rec))
	}
	conn.Close()
	awaitIdle(t, relay)
	ledger := relay.Ledger()
	if !ledger.Consistent() || ledger.BlocksEncoded != 0 || ledger.BlocksSent != int64(3*n) {
		t.Fatalf("ledger %+v: want %d sent and none recoded", ledger, 3*n)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	f, err := netio.NewFetcherFromConfig(tcpDial(relay.Addr()), netio.DefaultFetcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(ctx)
	if err != nil || !bytes.Equal(res.Payload, media) || res.Stats.Records != 3*n || res.Stats.Dependent != 0 {
		t.Fatalf("leaf of a relay filled mid-session: %v (stats %+v)", err, res.Stats)
	}
}

// TestRelaySweepLeafMovesBetweenRelays: two relays filled at once from one
// systematic origin hold the same basis — the source blocks — in different
// orders. A leaf cut off its first relay mid-sweep reconnects to the second,
// whose sweep starts elsewhere and repeats rows the leaf already holds: it
// completes byte-identical, and its dependent records are at most its rank
// at the move.
func TestRelaySweepLeafMovesBetweenRelays(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	const segments = 3
	media := testMedia(t, segments*p.SegmentSize(), 45)
	ocfg := netio.DefaultServerConfig()
	ocfg.Mode = netio.ModeSystematic
	_, ol := startOrigin(t, media, p, ocfg)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	relays := make([]*Relay, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range relays {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				errs[i] = err
				return
			}
			relays[i], errs[i] = StartRelay(ctx, RelayConfig{ID: fmt.Sprintf("r%d", i), Upstream: tcpDial(ol.Addr().String()), Listener: ln, Seed: int64(i)})
		}()
	}
	wg.Wait()
	for i, r := range relays {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		defer r.Close()
		select {
		case <-r.fetchDone:
		case <-ctx.Done():
			t.Fatalf("relay %d stuck at rank %d", i, r.TotalRank())
		}
	}

	// The first dial goes to relay 0 and is cut after 8 KiB, some 27 records;
	// every later one goes to relay 1.
	var dials atomic.Int32
	dial := func(ctx context.Context) (net.Conn, error) {
		if dials.Add(1) > 1 {
			return tcpDial(relays[1].Addr())(ctx)
		}
		conn, err := tcpDial(relays[0].Addr())(ctx)
		return &cutConn{Conn: conn, left: 8 << 10}, err
	}
	var f *netio.Fetcher
	rankAtMove := 0
	cfg := netio.DefaultFetcherConfig()
	cfg.BackoffBase, cfg.BackoffMax = time.Millisecond, 10*time.Millisecond
	cfg.SessionHook = func(netio.SessionInfo) {
		if dials.Load() == 2 {
			for _, r := range f.Ranks() {
				rankAtMove += r
			}
		}
	}
	f, err := netio.NewFetcherFromConfig(dial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(ctx)
	if err != nil || !bytes.Equal(res.Payload, media) {
		t.Fatalf("fetch moved between relays: %v (stats %+v)", err, res.Stats)
	}
	if dials.Load() != 2 || rankAtMove < 20 || res.Stats.Dependent > rankAtMove {
		t.Fatalf("%d dials, rank %d at the move, %d dependent records: want 2 dials and at most that many", dials.Load(), rankAtMove, res.Stats.Dependent)
	}
	t.Logf("rank %d at the move; %d records, %d dependent", rankAtMove, res.Stats.Records, res.Stats.Dependent)
}

// cutConn ends its stream with EOF once left bytes have been read.
type cutConn struct {
	net.Conn
	left int
}

func (c *cutConn) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, io.EOF
	}
	n, err := c.Conn.Read(p[:min(len(p), c.left)])
	c.left -= n
	return n, err
}

// pipeListener hands its server net.Pipe ends: a pipe write returns only once
// the peer has read it, which is what holds a session mid-sweep.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial connects a client end to the next Accept.
func (l *pipeListener) dial() net.Conn {
	client, server := net.Pipe()
	l.conns <- server
	return client
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestRelaySweepHangupMidSweep: a leaf that hangs up after five records of a
// sweep ends its session: the records it read are sent, the rest of the flush
// in flight is shed, nothing later is offered, and the relay's ledger
// balances exactly.
func TestRelaySweepHangupMidSweep(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	const segments = 3
	pl := newPipeListener()
	relay := warmRelay(t, p, segments, false, func(c *RelayConfig) { c.Listener = pl })
	conn := pl.dial()
	if _, recs := readSession(t, conn, 5); len(recs) != 5 {
		t.Fatalf("%d records", len(recs))
	}
	conn.Close()
	awaitIdle(t, relay)
	ledger := relay.Ledger()
	if !ledger.Consistent() || ledger.BlocksSent < 5 || ledger.BlocksSent >= int64(segments*p.BlockCount) || ledger.BlocksShed == 0 || ledger.BlocksEncoded != 0 {
		t.Fatalf("ledger %+v after a hang-up mid-sweep", ledger)
	}
	t.Logf("ledger %+v", ledger)
}

// heapAfterGC is the live heap once two collections have run — the second
// empties what the first moved to sync.Pool victim caches.
func heapAfterGC() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// allocated is the process's allocation count and bytes so far.
func allocated() (count, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// TestRelaySweepHoldsEachRecordOnce: a relay filled to full rank holds each
// innovative upstream record in exactly one buffer, and sweeps that buffer.
// Past a segment's first record it allocates one frame per record its
// recoder holds (and one spare), beside the few slabs of the probe and of the
// coefficient matrix and the growth of two slices, and nothing for a
// dependent one; the record Sweep returns is the held frame itself, pointer
// for pointer; two leaves swept by it decode byte-identical; and everything
// the relay and its server keep for a whole segment — the sweep table
// included, which points at the held frames — is at most its n held frames
// (4 + WireSize bytes each of these XNC1 records), the recoder's n×n probe
// and n×n coefficient bytes and a fixed allowance. A relay that framed a
// second copy of each held record for the table would keep twice the frames.
func TestRelaySweepHoldsEachRecordOnce(t *testing.T) {
	// A frame, 4 + WireSize = 16 KiB here, is one of the allocator's size
	// classes, so a held frame costs its length.
	p := rlnc.Params{BlockCount: 32, BlockSize: 16<<10 - 56}
	const segments = 4
	n := p.BlockCount
	if frame := 4 + rlnc.WireSize(p); frame != 16<<10 {
		t.Fatalf("a %d-byte frame", frame)
	}
	media := testMedia(t, segments*p.SegmentSize(), 47)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	// Each segment's stream: n + 2 XNC1 records, every third one followed by
	// a duplicate, which is dependent on arrival.
	rng := rand.New(rand.NewSource(48))
	streams := make([][][]byte, segments)
	for seg := range streams {
		enc := rlnc.NewEncoder(obj.Segments[seg], rng)
		for i := range n + 2 {
			rec, err := enc.NextBlock().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			streams[seg] = append(streams[seg], rec)
			if i%3 == 1 {
				streams[seg] = append(streams[seg], bytes.Clone(rec))
			}
		}
	}

	r := handRelay(t, p, media, segments, 0, false)
	format := rlnc.RecordFormat{Params: p}
	var b rlnc.CodedBlock      // the fetch's one reused block
	for seg := range streams { // each segment's first record builds its basis
		if held, err := absorbRecord(r, &b, streams[seg][0], format); !held || err != nil {
			t.Fatalf("segment %d's first record: held %v, %v", seg, held, err)
		}
	}
	// The collector is off while the allocations are counted: a cycle
	// starting mid-loop counts allocations of its own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count, size := allocated()
	kept := 0
	for seg := range streams {
		for _, rec := range streams[seg][1:] {
			held, err := absorbRecord(r, &b, rec, format)
			if err != nil {
				t.Fatal(err)
			}
			if held {
				kept++
			}
		}
	}
	count2, size2 := allocated()
	debug.SetGCPercent(100)
	// Beside the frames, the recoder's probe and coefficient matrix grow by
	// slabs — log2(n) of them each and under 2n² bytes a segment past its
	// first record — and the recoder's payloads and the relay's held records,
	// slices that grow with the rank, by doubling: log2(n) allocations each
	// and under 2n entries a segment. The test binary's other goroutines
	// allocate meanwhile, a few small objects at most; a second buffer per
	// held record would be 124 more.
	const slackCount, slackBytes = 16, 8 << 10
	frame, matrices := uint64(4+rlnc.WireSize(p)), uint64(2*segments*2*n*n)
	slabs := uint64(segments * bits.Len(uint(n-1)))
	growth := uint64(2 * segments * 2 * n * int(unsafe.Sizeof([]byte(nil))))
	if allocs, heldBytes := count2-count, size2-size; kept != segments*(n-1) ||
		allocs > uint64(kept)+4*slabs+slackCount || heldBytes > uint64(kept+1)*frame+matrices+growth+slackBytes {
		t.Fatalf("%d allocations of %d B for %d held records past each segment's first (want %d held): want one %d-byte frame each, the matrices' slabs and the slices' growth", allocs, heldBytes, kept, segments*(n-1), frame)
	}
	t.Logf("%d held records past each segment's first: %d allocations, %d B", kept, count2-count, size2-size)

	for seg := range segments {
		if !r.whole[seg].Load() || len(r.held[seg]) != n {
			t.Fatalf("segment %d: whole %v with %d held records", seg, r.whole[seg].Load(), len(r.held[seg]))
		}
		for i, frame := range r.held[seg] {
			if rec := (*relaySource)(r).Sweep(seg, i); len(rec) != len(frame) || &rec[0] != &frame[0] {
				t.Fatalf("segment %d: swept record %d is not the held frame", seg, i)
			}
		}
	}

	srv, err := netio.NewSourceServerFromConfig((*relaySource)(r), netio.DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(context.Background(), ln)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, err := netio.NewFetcherFromConfig(tcpDial(ln.Addr().String()), netio.DefaultFetcherConfig())
			if err != nil {
				t.Error(err)
				return
			}
			res, err := f.Fetch(ctx)
			if err != nil || !bytes.Equal(res.Payload, media) || res.Stats.Records != segments*n {
				t.Errorf("leaf of a whole relay: %v, %d records, want %d and the media", err, res.Stats.Records, segments*n)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for srv.Snapshot().Sessions != 0 {
		time.Sleep(time.Millisecond)
	}
	if snap := srv.Snapshot(); snap.BlocksEncoded != 0 || snap.BlocksSent != 2*segments*int64(n) {
		t.Fatalf("%d records sent, %d recoded: want %d swept and none recoded", snap.BlocksSent, snap.BlocksEncoded, 2*segments*n)
	}

	// What the relay keeps is what its teardown frees.
	holding := heapAfterGC()
	srv.Shutdown()
	ln.Close()
	<-served
	r, srv = nil, nil
	freed := int64(holding) - int64(heapAfterGC())
	const allowance = 128 << 10
	bound := int64(segments*(n*(4+rlnc.WireSize(p))+2*n*n) + allowance)
	t.Logf("a whole relay of %d segments kept %d B: bound %d B (held frames %d B a segment)", segments, freed, bound, n*(4+rlnc.WireSize(p)))
	if freed > bound {
		t.Fatalf("the relay and its server kept %d B for %d whole segments, want ≤ %d B: n held frames, n×n probe and n×n coefficient bytes a segment, plus %d B", freed, segments, bound, allowance)
	}
}

// TestRelaySegmentNamedOncePinsItsRank: a sender that names a segment once —
// one innovative record — makes a relay keep what rank 1 needs there, not a
// basis sized for n. At n = 1024, k = 32 KiB, one record into each of 8
// segments keeps at most 56 KiB a segment: the held frame (4 + WireSize
// bytes, which the allocator rounds up to whole 8 KiB pages) and 16 KiB for
// the recoder's scratch, its 2n-byte pivot index, its first probe and
// coefficient vectors and the headers. Its seeded random source is built on its first emission, so a
// relay that only absorbs has none. A recoder payload slice and a held slice
// sized for n would add 48 KiB a segment, n probe pointers 24 KiB.
func TestRelaySegmentNamedOncePinsItsRank(t *testing.T) {
	p := rlnc.Params{BlockCount: 1024, BlockSize: 32 << 10}
	const segments = 8
	n := p.BlockCount
	rng := rand.New(rand.NewSource(49))
	blocks := make([]*rlnc.CodedBlock, segments)
	recs := make([][]byte, segments)
	for seg := range blocks {
		blocks[seg] = &rlnc.CodedBlock{SegmentID: uint32(seg), Coeffs: make([]byte, n), Payload: make([]byte, p.BlockSize)}
		rng.Read(blocks[seg].Coeffs)
		rng.Read(blocks[seg].Payload)
		var err error
		if recs[seg], err = blocks[seg].MarshalBinary(); err != nil {
			t.Fatal(err)
		}
	}
	// No media: a 256 MiB object would only fill the header's length field,
	// and absorbing reads nothing but a record's shape and bytes.
	r := handRelay(t, p, nil, segments, 0, false)
	bank := (*relayBank)(r)

	before := heapAfterGC()
	for seg, b := range blocks {
		if held, err := bank.Absorb(b, recs[seg]); !held || err != nil {
			t.Fatalf("segment %d's first record: held %v, %v", seg, held, err)
		}
	}
	kept := int64(heapAfterGC()) - int64(before)
	const page = 8 << 10
	frame := (4 + rlnc.WireSize(p) + page - 1) &^ (page - 1)
	bound := int64(frame + 16<<10)
	t.Logf("one record into each of %d segments at %v: %d B kept, %d B a segment (bound %d B)", segments, p, kept, kept/segments, bound)
	if kept > segments*bound {
		t.Fatalf("%d B kept for %d segments at rank 1, want ≤ %d B a segment", kept, segments, bound)
	}
	if r.TotalRank() != segments {
		t.Fatalf("relay at total rank %d, want %d", r.TotalRank(), segments)
	}
	runtime.KeepAlive(blocks)
	runtime.KeepAlive(recs)
}

// TestRelayRekeyedUpstream: a relay whose upstream fetch is cut mid-fill and
// reconnects to a second origin of the same media under another seed — so
// another key — keeps the key it declared. It holds the first origin's XNC3
// records as they arrived and the second's laid out as XNC1, so every record
// it sweeps is either an XNC3 record whose payload is the media encoded under
// its index's vector under the declared key (rlnc.CounterCoeffs), or an XNC1
// record whose payload is the media encoded under its own coefficients. Its
// leaves read a counter session of both and decode byte-identical.
func TestRelayRekeyedUpstream(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	const segments, declared = 3, 5
	media := testMedia(t, segments*p.SegmentSize(), 52)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	var addrs []string
	for _, seed := range []int64{declared, declared + 1} {
		cfg := netio.DefaultServerConfig()
		cfg.Seed = seed
		_, ol := startOrigin(t, media, p, cfg)
		addrs = append(addrs, ol.Addr().String())
	}
	// The first dial goes to the first origin and is cut after 6 KiB, some
	// 21 records of 284 bytes; every later one goes to the second.
	var dials atomic.Int32
	up := func(ctx context.Context) (net.Conn, error) {
		if dials.Add(1) > 1 {
			return tcpDial(addrs[1])(ctx)
		}
		conn, err := tcpDial(addrs[0])(ctx)
		return &cutConn{Conn: conn, left: 6 << 10}, err
	}
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	relay, err := StartRelay(ctx, RelayConfig{
		ID: "rk", Upstream: up, Listener: rln, Seed: 9,
		FetchOpts: []netio.FetcherOption{func(c *netio.FetcherConfig) { c.BackoffBase, c.BackoffMax = time.Millisecond, 10*time.Millisecond }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	select {
	case <-relay.fetchDone:
	case <-ctx.Done():
		t.Fatalf("relay stuck at rank %d", relay.TotalRank())
	}
	if relay.fetchErr != nil || relay.TotalRank() != segments*p.BlockCount || dials.Load() < 2 {
		t.Fatalf("relay fetch: %v at rank %d over %d dials", relay.fetchErr, relay.TotalRank(), dials.Load())
	}
	if key, ok := (*relaySource)(relay).CounterKey(); !ok || key != declared {
		t.Fatalf("relay declares key %d (%v), want the first origin's, %d", key, ok, declared)
	}

	format := rlnc.RecordFormat{Params: p, Counter: true, Key: declared}
	kinds := map[string]int{}
	want := make([]byte, p.BlockSize)
	for seg := range segments {
		for i := range p.BlockCount {
			rec := (*relaySource)(relay).Sweep(seg, i)
			var b rlnc.CodedBlock
			if err := b.ParseView(rec[4:], format); err != nil {
				t.Fatalf("segment %d held record %d: %v", seg, i, err)
			}
			kinds[string(rec[4:8])]++
			rlnc.EncodeInto(want, obj.Segments[seg], b.Coeffs)
			if !bytes.Equal(b.Payload, want) {
				t.Fatalf("segment %d held %q record %d: its payload is not the media under its vector", seg, rec[4:8], i)
			}
		}
	}
	if kinds["XNC3"] == 0 || kinds["XNC1"] == 0 || len(kinds) != 2 {
		t.Fatalf("held records %v, want the first origin's XNC3 and the second's as XNC1", kinds)
	}
	t.Logf("held records %v over %d upstream dials", kinds, dials.Load())

	var mu sync.Mutex
	var taps []*tapConn
	for range 2 {
		f, err := netio.NewFetcherFromConfig(tapDial(tcpDial(relay.Addr()), &taps, &mu), netio.DefaultFetcherConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Fetch(ctx)
		if err != nil || !bytes.Equal(res.Payload, media) {
			t.Fatalf("leaf of a re-keyed relay: %v (stats %+v)", err, res.Stats)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, tc := range taps {
		tc.mu.Lock()
		flags, magics := hopRecords(t, tc.buf)
		tc.mu.Unlock()
		if flags != 1<<2 || magics["XNC3"] != kinds["XNC3"] || magics["XNC1"] != kinds["XNC1"] {
			t.Fatalf("leaf session: flags %#x and records %v, want the counter flag and the held records %v", flags, magics, kinds)
		}
	}
}

// TestRelayHoldsCounterRecordsOnce: a relay of a counter session that holds
// segments whole keeps, a segment, its n upstream records as they arrived —
// n × (4 + CounterWireSize) bytes — its recoder's n² coefficient bytes, n²
// probe bytes and 2n pivot bytes, two slices of n entries and a fixed
// allowance: the live heap grows by no more across filling it. A relay that
// laid each record out again as XNC1 would keep n − 4 more bytes a record,
// here a larger size class. And
// sweeping a held record allocates nothing, over a dense upstream and over a
// systematic one.
func TestRelayHoldsCounterRecordsOnce(t *testing.T) {
	// A frame, 4 + CounterWireSize = 16 KiB here, is one of the allocator's
	// size classes, so a held frame costs its length.
	p := rlnc.Params{BlockCount: 32, BlockSize: 16<<10 - 28}
	const segments = 4
	n := p.BlockCount
	frame := 4 + rlnc.CounterWireSize(p)
	if frame != 16<<10 {
		t.Fatalf("a %d-byte frame", frame)
	}
	media := testMedia(t, segments*p.SegmentSize(), 53)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	// Each segment's counter records from index 0, a few past n in case its
	// first n vectors fall short of rank n.
	recs := make([][][]byte, segments)
	for seg := range recs {
		for index := range uint32(n + 4) {
			recs[seg] = append(recs[seg], rlnc.CounterRecord(obj.Segments[seg], partialKey, index))
		}
	}
	format := rlnc.RecordFormat{Params: p, Counter: true, Key: partialKey}
	b := rlnc.CodedBlock{Coeffs: make([]byte, n)}
	r := handRelay(t, p, media, segments, partialKey, true)

	before := heapAfterGC()
	for seg := range recs {
		for _, rec := range recs[seg] {
			if r.whole[seg].Load() {
				break
			}
			if _, err := absorbRecord(r, &b, rec, format); err != nil {
				t.Fatal(err)
			}
		}
	}
	kept := int64(heapAfterGC()) - int64(before)
	// Beside those, a segment pins the recoder's fixed fields and two slices
	// of n entries, the recoder's payloads and the relay's held records; the
	// test binary allocates a few KiB meanwhile. A relay that laid each
	// record out again as XNC1 would keep 256 KiB more here.
	const allowance = 32 << 10
	perSegment := n*frame + 2*n*n + 2*n + 2*n*int(unsafe.Sizeof([]byte(nil)))
	bound := int64(segments*perSegment + allowance)
	t.Logf("%d whole segments at %v: %d B kept, bound %d B (%d B of held records a segment)", segments, p, kept, bound, n*frame)
	if kept > bound {
		t.Fatalf("%d B kept for %d whole segments, want ≤ %d B: n records as they arrived, n² coefficient, n² probe and 2n pivot bytes a segment, plus %d B", kept, segments, bound, allowance)
	}
	for seg := range segments {
		if !r.whole[seg].Load() {
			t.Fatalf("segment %d not whole", seg)
		}
		for i := range n {
			if rec := (*relaySource)(r).Sweep(seg, i); len(rec) != frame || string(rec[4:8]) != "XNC3" {
				t.Fatalf("segment %d: held record %d is a %d-byte %q record", seg, i, len(rec), rec[4:8])
			}
		}
	}
	runtime.KeepAlive(recs)

	for _, xor := range []bool{false, true} {
		small := rlnc.Params{BlockCount: 16, BlockSize: 256}
		src := (*relaySource)(warmRelay(t, small, 2, xor))
		if got := testing.AllocsPerRun(100, func() {
			for seg := range 2 {
				for i := range small.BlockCount {
					if src.Sweep(seg, i) == nil {
						t.Fatal("a whole segment swept nothing")
					}
				}
			}
		}); got != 0 {
			t.Fatalf("xor %v: %.2f allocations sweeping a whole relay, want 0", xor, got)
		}
	}
}

// TestRelaySweepLeavesDialWhileFilling is the gate of a relay that sweeps as
// it fills: leaves that dial a relay as soon as StartRelay returns, while the
// relay still fills over a slow upstream, are swept its held records as they
// arrive. Each reads at most n × segments + margin records, at most a tenth of
// them dependent, and the last of them finishes — median over the runs — no
// later than the last leaf of a relay that fills first and then serves. Both
// hops read through the same slow link, a 2 ms stall about every KiB.
func TestRelaySweepLeavesDialWhileFilling(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	const segments, leaves, runs, margin = 4, 3, 3, 2
	media := testMedia(t, segments*p.SegmentSize(), 54)
	_, ol := startOrigin(t, media, p, netio.DefaultServerConfig())
	slow := func(seed int64, base netio.DialFunc) netio.DialFunc {
		d, _ := faultnet.Dialer(faultnet.Config{Seed: seed, StallEvery: 1 << 10, Stall: 2 * time.Millisecond, MaxReadChunk: 1 << 10}, base)
		return d
	}
	// leg starts a relay, has leaves fetch through it — once it is full when
	// fillFirst — and returns the time from StartRelay to the last leaf's
	// completion, with what the leaves read.
	leg := func(run int64, fillFirst bool) (last time.Duration, records []int, dependent int) {
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		t0 := time.Now()
		relay, err := StartRelay(ctx, RelayConfig{ID: "rf", Upstream: slow(run, tcpDial(ol.Addr().String())), Listener: rln, Seed: run})
		if err != nil {
			t.Fatal(err)
		}
		defer relay.Close()
		if fillFirst {
			select {
			case <-relay.fetchDone:
			case <-ctx.Done():
				t.Fatalf("relay stuck at rank %d", relay.TotalRank())
			}
		}
		results := make([]*netio.FetchResult, leaves)
		errs := make([]error, leaves)
		var wg sync.WaitGroup
		for i := range leaves {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f, err := netio.NewFetcherFromConfig(slow(100*run+int64(i), tcpDial(relay.Addr())), netio.DefaultFetcherConfig())
				if err != nil {
					errs[i] = err
					return
				}
				results[i], errs[i] = f.Fetch(ctx)
				if errs[i] == nil && !bytes.Equal(results[i].Payload, media) {
					errs[i] = errors.New("payload differs")
				}
			}()
		}
		wg.Wait()
		last = time.Since(t0)
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("leaves of relay run %d (fill first %v): %v", run, fillFirst, err)
		}
		for _, res := range results {
			records = append(records, res.Stats.Records)
			dependent += res.Stats.Dependent
		}
		return last, records, dependent
	}
	median := func(d []time.Duration) time.Duration {
		d = slices.Clone(d)
		slices.Sort(d)
		return d[len(d)/2]
	}
	var swept, filled []time.Duration
	for run := range int64(runs) {
		last, records, dependent := leg(run, false)
		t.Logf("run %d: leaves dialing at once read %v records (%d dependent), the last done after %v", run, records, dependent, last)
		total := 0
		for _, r := range records {
			total += r
			if r > segments*p.BlockCount+margin {
				t.Errorf("run %d: a leaf read %d records, want at most %d", run, r, segments*p.BlockCount+margin)
			}
		}
		if 10*dependent > total {
			t.Errorf("run %d: %d of %d records dependent, want at most a tenth", run, dependent, total)
		}
		swept = append(swept, last)
		last, _, _ = leg(run, true)
		filled = append(filled, last)
	}
	t.Logf("last leaf, median of %d runs: %v dialing at once, %v filling first", runs, median(swept), median(filled))
	if median(swept) > median(filled) {
		t.Fatalf("leaves dialing at once finished after %v, leaves of a relay that filled first after %v", median(swept), median(filled))
	}
}
