package mesh

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

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
	return flags, recs
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
// whole reads exactly n × segments records — the relay's held rows, each once,
// byte for byte as the relay frames them — and decodes byte-identical
// with nothing recoded: the header sets no flag, nothing is encoded and the
// ledger balances. A dense relay sweeps XNC1 rows; a relay over a systematic
// origin holds source blocks and sweeps them as XNC2.
func TestRelaySweepServesHeldRows(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	const segments = 3
	total := segments * p.BlockCount
	for _, tc := range []struct {
		name  string
		xor   bool
		magic string
	}{{"dense", false, "XNC1"}, {"xor", true, "XNC2"}} {
		t.Run(tc.name, func(t *testing.T) {
			relay := warmRelay(t, p, segments, tc.xor)
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			var mu sync.Mutex
			var taps []*tapConn
			f, err := netio.NewFetcherFromConfig(tapDial(tcpDial(relay.Addr()), &taps, &mu), netio.DefaultFetcherConfig())
			if err != nil {
				t.Fatal(err)
			}
			res, err := f.Fetch(ctx)
			if err != nil || !bytes.Equal(res.Payload, warmMedia(t, p, segments)) {
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
			taps[0].mu.Lock()
			wire := taps[0].buf
			taps[0].mu.Unlock()
			flags, magics := hopRecords(t, wire)
			if flags != 0 || magics[tc.magic] != total || len(magics) != 1 {
				t.Fatalf("flags %#x and records %v, want no flag and %d %s records", flags, magics, total, tc.magic)
			}
			for rest := wire[8+binary.BigEndian.Uint32(wire[4:])+4:]; len(rest) > 0; {
				rec := rest[:4+binary.BigEndian.Uint32(rest)]
				if !table[string(rec)] {
					t.Fatal("a record on the wire is not a held row of the relay's")
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

// handRelay is a relay with no upstream — its fetcher is never dialed — that
// has learned a dense session of media at p in segments segments, as its first
// upstream handshake would have told it.
func handRelay(t *testing.T, p rlnc.Params, media []byte, segments int) *Relay {
	t.Helper()
	up, err := netio.NewFetcherFromConfig(tcpDial("127.0.0.1:1"), netio.DefaultFetcherConfig()) // never dialed
	if err != nil {
		t.Fatal(err)
	}
	r := &Relay{upFetch: up, ready: make(chan struct{})}
	r.onSession(netio.SessionInfo{Params: p, Segments: segments, Length: int64(len(media)), Mode: netio.ModeDense})
	return r
}

// partialRelay is a hand relay whose segment seg is filled to ranks[seg] by
// absorbing dense blocks of media, as its upstream fetch would, serving on a
// loopback listener.
func partialRelay(t *testing.T, p rlnc.Params, media []byte, ranks []int) *Relay {
	t.Helper()
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	r := handRelay(t, p, media, len(ranks))
	rng := rand.New(rand.NewSource(43))
	for seg, rank := range ranks {
		enc := rlnc.NewEncoder(obj.Segments[seg], rng)
		for (*relayBank)(r).Rank(uint32(seg)) < rank {
			if _, err := (*relayBank)(r).Absorb(enc.NextBlock()); err != nil {
				t.Fatal(err)
			}
		}
		if r.whole[seg].Load() != (rank == p.BlockCount) {
			t.Fatalf("segment %d at rank %d: whole %v", seg, rank, r.whole[seg].Load())
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
	r.srv, r.ln = srv, ln
	go srv.Serve(context.Background(), ln)
	t.Cleanup(func() {
		srv.Shutdown()
		ln.Close()
	})
	return r
}

// TestRelaySweepPartialSegments: a relay whole in segments 0 and 2 and at half
// rank in segment 1 sweeps only the whole ones — their held rows, before
// anything else — and pushes a default grant of recodes, n + 2, for the
// partial one, and then nothing. Every recode is counted as encoded; no swept
// record is.
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
	swept, grant := 2*n, n+2
	flags, recs := readSession(t, conn, swept+grant)
	if flags != 0 {
		t.Fatalf("flags %#x, want none", flags)
	}
	table := map[string]bool{}
	for _, seg := range []int{0, 2} {
		for i := range n {
			table[string((*relaySource)(relay).Sweep(seg, i))] = true
		}
	}
	if (*relaySource)(relay).Sweep(1, 0) != nil {
		t.Fatal("a partial segment was swept")
	}
	for i, rec := range recs {
		seg := recordSegment(t, rec)
		if i < swept {
			if !table[string(rec)] {
				t.Fatalf("sweep record %d (segment %d) is not a held row of a whole segment", i, seg)
			}
			delete(table, string(rec))
		} else if seg != 1 {
			t.Fatalf("record %d after the sweep is of segment %d, want the partial segment 1", i, seg)
		}
	}
	// Owed nothing more: the next read waits.
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if k, err := conn.Read(make([]byte, 1)); k != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read %d bytes (%v) past the first grant", k, err)
	}
	conn.Close()
	awaitIdle(t, relay)
	ledger := relay.Ledger()
	if !ledger.Consistent() || ledger.BlocksEncoded != int64(grant) || ledger.BlocksSent != int64(swept+grant) {
		t.Fatalf("ledger %+v: want %d recoded and encoded, %d sent", ledger, grant, swept+grant)
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
// recoder holds (and one spare), beside the probe's few slabs and the growth
// of two slices, and nothing for a dependent one; the record
// Sweep returns is the held frame itself, pointer for pointer; two leaves
// swept by it decode byte-identical; and everything the relay and its server
// keep for a whole segment — the sweep table included, which points at the
// held frames — is at most its n held frames (4 + WireSize bytes each), the
// recoder's n×n probe bytes and a fixed allowance. A relay that framed a second copy of
// each held row for the table would keep twice the frames.
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
	// Each segment's stream: n + 2 dense blocks, every third one followed by
	// a duplicate, which is dependent on arrival.
	rng := rand.New(rand.NewSource(48))
	streams := make([][]*rlnc.CodedBlock, segments)
	for seg := range streams {
		enc := rlnc.NewEncoder(obj.Segments[seg], rng)
		for i := range n + 2 {
			b := enc.NextBlock()
			streams[seg] = append(streams[seg], b)
			if i%3 == 1 {
				streams[seg] = append(streams[seg], b.Clone())
			}
		}
	}

	r := handRelay(t, p, media, segments)
	bank := (*relayBank)(r)
	for seg := range streams { // each segment's first record builds its basis
		if held, err := bank.Absorb(streams[seg][0]); !held || err != nil {
			t.Fatalf("segment %d's first record: held %v, %v", seg, held, err)
		}
	}
	// The collector is off while the allocations are counted: a cycle
	// starting mid-loop counts allocations of its own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count, size := allocated()
	kept := 0
	for seg := range streams {
		for _, b := range streams[seg][1:] {
			held, err := bank.Absorb(b)
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
	// Beside the frames, the recoder's probe grows by slabs — log2(n) of them
	// and under n² bytes a segment past its first record — and the recoder's
	// rows and the relay's held records, slices that grow with the rank, by
	// doubling: log2(n) allocations each and under 2n entries a segment. The
	// test binary's other goroutines allocate meanwhile, a few small objects
	// at most; a second buffer per held record would be 124 more.
	const slackCount, slackBytes = 16, 8 << 10
	frame, probe := uint64(4+rlnc.WireSize(p)), uint64(segments*n*n)
	slabs := uint64(segments * bits.Len(uint(n-1)))
	growth := uint64(2 * segments * 2 * n * int(unsafe.Sizeof([]byte(nil))))
	if allocs, heldBytes := count2-count, size2-size; kept != segments*(n-1) ||
		allocs > uint64(kept)+3*slabs+slackCount || heldBytes > uint64(kept+1)*frame+probe+growth+slackBytes {
		t.Fatalf("%d allocations of %d B for %d held records past each segment's first (want %d held): want one %d-byte frame each, the probe's slabs and the slices' growth", allocs, heldBytes, kept, segments*(n-1), frame)
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
	r, bank, srv = nil, nil, nil
	freed := int64(holding) - int64(heapAfterGC())
	const allowance = 128 << 10
	bound := int64(segments*(n*(4+rlnc.WireSize(p))+n*n) + allowance)
	t.Logf("a whole relay of %d segments kept %d B: bound %d B (held frames %d B a segment)", segments, freed, bound, n*(4+rlnc.WireSize(p)))
	if freed > bound {
		t.Fatalf("the relay and its server kept %d B for %d whole segments, want ≤ %d B: n held frames and n×n probe bytes a segment, plus %d B", freed, segments, bound, allowance)
	}
}

// TestRelaySegmentNamedOncePinsItsRank: a sender that names a segment once —
// one innovative record — makes a relay keep what rank 1 needs there, not a
// basis sized for n. At n = 1024, k = 32 KiB, one record into each of 8
// segments keeps at most a bound a segment: the held frame (4 + WireSize
// bytes, which the allocator rounds up to whole 8 KiB pages), the recoder's n
// probe pointers, and 16 KiB for its scratch, its first probe slab, its seeded
// random source and the headers. A recoder row slice and a held slice sized
// for n would add 48 KiB a segment.
func TestRelaySegmentNamedOncePinsItsRank(t *testing.T) {
	p := rlnc.Params{BlockCount: 1024, BlockSize: 32 << 10}
	const segments = 8
	n := p.BlockCount
	rng := rand.New(rand.NewSource(49))
	blocks := make([]*rlnc.CodedBlock, segments)
	for seg := range blocks {
		blocks[seg] = &rlnc.CodedBlock{SegmentID: uint32(seg), Coeffs: make([]byte, n), Payload: make([]byte, p.BlockSize)}
		rng.Read(blocks[seg].Coeffs)
		rng.Read(blocks[seg].Payload)
	}
	// No media: a 256 MiB object would only fill the header's length field,
	// and absorbing reads nothing but a record's shape and bytes.
	r := handRelay(t, p, nil, segments)
	bank := (*relayBank)(r)

	before := heapAfterGC()
	for seg, b := range blocks {
		if held, err := bank.Absorb(b); !held || err != nil {
			t.Fatalf("segment %d's first record: held %v, %v", seg, held, err)
		}
	}
	kept := int64(heapAfterGC()) - int64(before)
	const page = 8 << 10
	frame := (4 + rlnc.WireSize(p) + page - 1) &^ (page - 1)
	bound := int64(frame + n*int(unsafe.Sizeof([]byte(nil))) + 16<<10)
	t.Logf("one record into each of %d segments at %v: %d B kept, %d B a segment (bound %d B)", segments, p, kept, kept/segments, bound)
	if kept > segments*bound {
		t.Fatalf("%d B kept for %d segments at rank 1, want ≤ %d B a segment", kept, segments, bound)
	}
	if r.TotalRank() != segments {
		t.Fatalf("relay at total rank %d, want %d", r.TotalRank(), segments)
	}
	runtime.KeepAlive(blocks)
}
