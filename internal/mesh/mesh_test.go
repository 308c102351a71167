package mesh

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

func testMedia(t testing.TB, size int, seed int64) []byte {
	t.Helper()
	media := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(media)
	return media
}

// flightDumpOnFailure arms the flight recorder for the duration of a mesh
// gate and, if the gate fails, writes the event dump to flight-mesh.json at
// the repo root so CI can attach the postmortem to the failure.
func flightDumpOnFailure(t *testing.T) {
	t.Helper()
	trace.Enable(1 << 16)
	t.Cleanup(func() {
		defer trace.Disable()
		if !t.Failed() {
			return
		}
		path := filepath.Join("..", "..", "flight-mesh.json")
		if err := os.WriteFile(path, trace.DumpJSON(), 0o644); err != nil {
			t.Logf("flight dump: %v", err)
			return
		}
		t.Logf("flight recorder dumped to %s", path)
	})
}

// startOrigin brings up a plain origin server on loopback for single-relay
// tests.
func startOrigin(t testing.TB, media []byte, p rlnc.Params, cfg netio.ServerConfig) (*netio.Server, net.Listener) {
	t.Helper()
	srv, err := netio.NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	go srv.Serve(context.Background(), l)
	t.Cleanup(func() {
		srv.Shutdown()
		l.Close()
	})
	return srv, l
}

// TestRelayServesRecodedBlocks: origin → relay → leaf, all dense. The leaf
// only ever talks to the relay, and every record it absorbs is a recoded
// recombination — the decode must still be byte-identical (recoding
// obliviousness, paper Sec. 2).
func TestRelayServesRecodedBlocks(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 3*p.SegmentSize()-11, 5)
	ocfg := netio.DefaultServerConfig()
	ocfg.Seed = 2
	_, ol := startOrigin(t, media, p, ocfg)

	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	relay, err := StartRelay(ctx, RelayConfig{
		ID: "r0", Upstream: tcpDial(ol.Addr().String()), Listener: rln, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	if (*relaySource)(relay).Info().Mode != netio.ModeDense {
		t.Fatalf("dense relay declares mode %v", (*relaySource)(relay).Info().Mode)
	}

	f, err := netio.NewFetcherFromConfig(tcpDial(relay.Addr()), netio.DefaultFetcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("fetch through relay: %v (stats %+v)", err, res.Stats)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload not byte-identical through the relay")
	}
	full := 3 * p.BlockCount
	if relay.TotalRank() != full {
		t.Fatalf("relay rank %d, want %d (leaf finished before relay?)", relay.TotalRank(), full)
	}
}

// warmMedia is the object warmRelay's origin serves.
func warmMedia(t testing.TB, p rlnc.Params, segments int) []byte {
	return testMedia(t, segments*p.SegmentSize(), 6)
}

// warmSeed is the seed of warmRelay's origin, the key of a dense one.
const warmSeed = 3

// warmRelay starts an origin and one relay over it and returns the relay once
// it holds full rank in every segment: a dense origin and relay, or with xor a
// systematic origin — whose sweep alone fills the relay — and so a relay that
// recodes on the GF(2) XOR path. opts adjust the relay's config before it
// starts.
func warmRelay(t testing.TB, p rlnc.Params, segments int, xor bool, opts ...func(*RelayConfig)) *Relay {
	t.Helper()
	ocfg := netio.DefaultServerConfig()
	ocfg.Seed = warmSeed
	if xor {
		ocfg.Mode = netio.ModeSystematic
	}
	_, ol := startOrigin(t, warmMedia(t, p, segments), p, ocfg)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	cfg := RelayConfig{ID: "r0", Upstream: tcpDial(ol.Addr().String()), Listener: rln, Seed: 9}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.Listener != rln {
		rln.Close()
	}
	relay, err := StartRelay(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(relay.Close)
	for relay.TotalRank() < segments*p.BlockCount {
		if ctx.Err() != nil {
			t.Fatalf("relay stuck at rank %d", relay.TotalRank())
		}
		time.Sleep(time.Millisecond)
	}
	return relay
}

// frameStock stands in for the server's frame pool: a fixed stock of frames
// of the length a server of p hands its source, handed out whole every round.
type frameStock struct{ whole, frames [][]byte }

func newFrameStock(p rlnc.Params, batch int) *frameStock {
	s := &frameStock{whole: make([][]byte, batch), frames: make([][]byte, batch)}
	for i := range s.whole {
		s.whole[i] = make([]byte, 4+rlnc.WireSize(p))
	}
	return s
}

// round returns the stock's frames, whole again.
func (s *frameStock) round() [][]byte {
	copy(s.frames, s.whole)
	return s.frames
}

// TestRelayRecordsDoNotAllocate: a warm relay's Records — frames laid out,
// one batch recombination written into them, sealed — allocates nothing once
// its scratch has seen a batch, and every record it lays is a valid block of
// the segment asked for: dense XNC1 from a dense relay, XNC2 from an XOR
// relay over binary input (each emission narrowed in its frame). At
// n=16, k=256 the dense recode runs on the caller; a batch of 32 at n=128,
// k=4096 is split across the shared pool.
func TestRelayRecordsDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		p     rlnc.Params
		batch int
		xor   bool
	}{
		{rlnc.Params{BlockCount: 16, BlockSize: 256}, 8, false},
		{rlnc.Params{BlockCount: 128, BlockSize: 4096}, 32, false},
		{rlnc.Params{BlockCount: 16, BlockSize: 256}, 8, true},
		{rlnc.Params{BlockCount: 128, BlockSize: 4096}, 32, true},
	} {
		p, batch := tc.p, tc.batch
		relay := warmRelay(t, p, 2, tc.xor)
		src := (*relaySource)(relay)
		stock := newFrameStock(p, batch)
		seg := 0
		round := func() {
			if k := src.Records(seg, stock.round()); k != batch {
				t.Fatalf("%d records for a batch of %d", k, batch)
			}
			seg = 1 - seg
		}
		if got := testing.AllocsPerRun(100, round); got != 0 {
			t.Errorf("n=%d k=%d xor=%v: %.2f allocations per batch of %d recoded records, want 0", p.BlockCount, p.BlockSize, tc.xor, got, batch)
		}
		magic := "XNC1"
		if tc.xor {
			magic = "XNC2"
		}
		recs := stock.round()
		for _, rec := range recs[:src.Records(1, recs)] {
			var b rlnc.CodedBlock
			if err := b.UnmarshalRecord(rec[4:]); err != nil || string(rec[4:8]) != magic || b.SegmentID != 1 || b.Params() != p {
				t.Fatalf("recoded record: %v (%q, segment %d, %+v), want %s", err, rec[4:8], b.SegmentID, b.Params(), magic)
			}
		}
	}
}

// BenchmarkDenseRecords: one pump round of a relay at full rank — a batch of
// recombinations recoded straight into frames — per record: dense, and XOR
// over binary input, whose emissions are narrowed to XNC2.
func BenchmarkDenseRecords(b *testing.B) {
	p := rlnc.Params{BlockCount: 128, BlockSize: 4096}
	for _, xor := range []bool{false, true} {
		name := "relay"
		if xor {
			name = "relay-xor"
		}
		b.Run(fmt.Sprintf("%s/n=%d/k=%d", name, p.BlockCount, p.BlockSize), func(b *testing.B) {
			relay := warmRelay(b, p, 2, xor)
			src := (*relaySource)(relay)
			batch := p.BlockCount / 4 // the pump's round size, max(4, n/4)
			stock := newFrameStock(p, batch)
			b.SetBytes(int64(p.BlockSize))
			b.ReportAllocs()
			b.ResetTimer()
			for done, seg := 0, 0; done < b.N; done, seg = done+batch, 1-seg {
				if src.Records(seg, stock.round()) != batch {
					b.Fatal("short batch from a warm relay")
				}
			}
		})
	}
}

// TestXorRelayRecordsMatchEmit: an XOR relay's Records — the batch laid
// out as XNC1, one EmitInto, each binary emission narrowed to XNC2 — writes
// byte for byte the records of successive Emits framed one at a time
// (netio.FrameRecord) by a twin recoder on the same seed and input: over
// binary input, where every record is XNC2, and over input with a dense tail,
// where XNC1 and XNC2 records interleave.
func TestXorRelayRecordsMatchEmit(t *testing.T) {
	p := rlnc.Params{BlockCount: 12, BlockSize: 96}
	seg, err := rlnc.SegmentFromData(0, p, testMedia(t, p.SegmentSize(), 41))
	if err != nil {
		t.Fatal(err)
	}
	up, err := netio.NewFetcherFromConfig(tcpDial("127.0.0.1:1"), netio.DefaultFetcherConfig()) // never dialed
	if err != nil {
		t.Fatal(err)
	}
	for _, denseTail := range []bool{false, true} {
		recoder := func() *rlnc.Recoder {
			rec, err := rlnc.NewRecoder(p, rlnc.WithSeed(77), rlnc.WithXorRecode())
			if err != nil {
				t.Fatal(err)
			}
			// Half the sweep, then the XOR repair and the dense tail of one
			// cycle; the dense tail only when asked for.
			se := rlnc.NewSystematicEncoder(seg, rand.New(rand.NewSource(42)), rlnc.WithXorRepair(3), rlnc.WithDenseTail(2))
			for i := range p.BlockCount + 5 {
				b := se.Block()
				if (i >= p.BlockCount/2 && i < p.BlockCount) || (!denseTail && !b.IsBinary()) {
					continue
				}
				if err := rec.Add(b); err != nil {
					t.Fatal(err)
				}
			}
			return rec
		}
		twin := recoder()
		r := &Relay{
			info:     netio.SessionInfo{Params: p, Segments: 1, Length: int64(p.SegmentSize()), Mode: netio.ModeSystematic},
			recoders: []*rlnc.Recoder{recoder()},
			upFetch:  up,
		}
		kinds := map[string]int{}
		for _, batch := range []int{1, 3, 8, 16} {
			recs := newFrameStock(p, batch).round()
			if k := (*relaySource)(r).Records(0, recs); k != batch {
				t.Fatalf("dense tail %v: %d records for a batch of %d", denseTail, k, batch)
			}
			for i, rec := range recs {
				blk, err := twin.Emit()
				if err != nil {
					t.Fatal(err)
				}
				want, err := netio.FrameRecord(blk, netio.ModeSystematic)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rec, want) {
					t.Fatalf("dense tail %v: record %d of a batch of %d differs from Emit + FrameRecord", denseTail, i, batch)
				}
				kinds[string(rec[4:8])]++
			}
		}
		if kinds["XNC2"] == 0 || (kinds["XNC1"] != 0) != denseTail {
			t.Fatalf("dense tail %v: records %v", denseTail, kinds)
		}
		t.Logf("dense tail %v: records %v", denseTail, kinds)
	}
}

// declaredHeader is a CRC-valid session header declaring segments segments
// of n blocks of k bytes in dense mode, with a length that agrees and no
// flags, under the protocol version a live origin's header carries.
func declaredHeader(t *testing.T, n, k, segments uint32) []byte {
	t.Helper()
	p := rlnc.Params{BlockCount: 4, BlockSize: 16}
	_, ol := startOrigin(t, testMedia(t, p.SegmentSize(), 1), p, netio.DefaultServerConfig())
	conn, err := net.Dial("tcp", ol.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	live := make([]byte, 12) // magic, body length, version
	if _, err := io.ReadFull(conn, live); err != nil || string(live[:4]) != "XNCP" {
		t.Fatalf("a live origin opened with % x: %v", live, err)
	}
	body := slices.Clone(live[8:12])
	for _, v := range []uint32{n, k, segments} {
		body = binary.BigEndian.AppendUint32(body, v)
	}
	body = binary.BigEndian.AppendUint64(body, uint64(segments)*uint64(n)*uint64(k))
	body = binary.BigEndian.AppendUint64(body, 0) // dense mode, no flags
	hdr := binary.BigEndian.AppendUint32([]byte("XNCP"), uint32(len(body)))
	hdr = append(hdr, body...)
	return binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
}

// TestRelayRefusesHostileSegmentCount: an upstream whose CRC-valid header
// declares 2^16 + 1 segments — with a length that agrees, under the protocol
// version — fails every handshake on the segment bound. The relay never
// learns a session, so it builds no recoder (the hook its own session hook
// runs before never fires), StartRelay gives up when its context ends, and
// the fetch ledger counts the attempts.
func TestRelayRefusesHostileSegmentCount(t *testing.T) {
	const n, k, segments = 4, 64, 1<<16 + 1
	hdr := declaredHeader(t, n, k, segments)

	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	var served atomic.Int32
	go func() {
		for {
			c, err := ol.Accept()
			if err != nil {
				return
			}
			served.Add(1)
			c.Write(hdr)
			c.Close()
		}
	}()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var sessions atomic.Int32
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	relay, err := StartRelay(ctx, RelayConfig{
		ID: "rh", Upstream: tcpDial(ol.Addr().String()), Listener: rln,
		FetchOpts: []netio.FetcherOption{
			netio.WithSessionHook(func(netio.SessionInfo) { sessions.Add(1) }),
			func(c *netio.FetcherConfig) { c.Metrics = reg },
		},
	})
	if err == nil {
		relay.Close()
		t.Fatal("a relay started over an upstream declaring 2^16 + 1 segments")
	}
	attempts, _ := reg.CounterValue("fetch.attempts")
	if sessions.Load() != 0 || attempts == 0 || served.Load() == 0 {
		t.Fatalf("%d sessions, %d attempts, %d headers served: want handshakes failed and no session", sessions.Load(), attempts, served.Load())
	}
	t.Logf("%v after %d refused handshakes", err, attempts)
	// The refusal is the segment bound's, not the version's.
	conn, err := net.Dial("tcp", ol.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = netio.Fetch(context.Background(), conn)
	if !errors.Is(err, netio.ErrBadHandshake) || !strings.Contains(err.Error(), fmt.Sprintf("%d segments, at most %d", segments, 1<<16)) {
		t.Fatalf("the header was refused with %v, want the segment bound", err)
	}
}

// TestRelayDeclaredSegmentsHoldNothing: an upstream whose CRC-valid header
// declares as many segments as a header may — 2^16 at n = 1024, k = 32 KiB,
// a 2 TiB object — and then sends no record costs the relay a few words per
// segment and nothing more. StartRelay plus one downstream handshake keep at
// most 16 MiB and 16 goroutines more than before them; a segment's basis
// waits for its first record, and the sweep table's entries for a record to
// sweep. Built at the handshake, the recoders would keep ~3.7 GiB (60 KiB
// each) and a sweep table of segments × n entries 512 MiB.
func TestRelayDeclaredSegmentsHoldNothing(t *testing.T) {
	const n, k, segments = 1024, 32 << 10, 1 << 16
	const heapBound, goroutineBound = 16 << 20, 16
	hdr := declaredHeader(t, n, k, segments)

	// The upstream answers every dial with the header, then reads whatever
	// the relay writes and sends nothing.
	ol, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	var mu sync.Mutex
	var upConns []net.Conn
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range upConns {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := ol.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			upConns = append(upConns, c)
			mu.Unlock()
			c.Write(hdr)
			go io.Copy(io.Discard, c)
		}
	}()
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	heap, goroutines := heapAfterGC(), runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	relay, err := StartRelay(ctx, RelayConfig{ID: "rd", Upstream: tcpDial(ol.Addr().String()), Listener: rln})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	conn, err := net.Dial("tcp", relay.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	readSession(t, conn, 0)
	if info := (*relaySource)(relay).Info(); info.Segments != segments || info.Params.BlockCount != n || relay.TotalRank() != 0 {
		t.Fatalf("relay declares %+v at rank %d", info, relay.TotalRank())
	}
	kept, more := int64(heapAfterGC())-int64(heap), runtime.NumGoroutine()-goroutines
	t.Logf("StartRelay and a downstream handshake at %d declared segments: %d B and %d goroutines kept", segments, kept, more)
	if kept > heapBound || more > goroutineBound {
		t.Fatalf("%d B and %d goroutines kept for %d declared segments, want ≤ %d B and ≤ %d", kept, more, segments, heapBound, goroutineBound)
	}
}

// TestRelayXorRecode: a systematic origin feeding a relay, which recodes in
// its upstream's field: it re-declares ModeSystematic downstream so its binary
// recombinations travel in the compact XNC2 encoding, and the leaf must still
// reassemble the object exactly.
func TestRelayXorRecode(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize()-7, 31)
	ocfg := netio.DefaultServerConfig()
	ocfg.Seed = 3
	ocfg.Mode = netio.ModeSystematic
	_, ol := startOrigin(t, media, p, ocfg)

	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	relay, err := StartRelay(ctx, RelayConfig{
		ID: "rx", Upstream: tcpDial(ol.Addr().String()), Listener: rln,
		Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	if (*relaySource)(relay).Info().Mode != netio.ModeSystematic {
		t.Fatalf("xor relay declares mode %v, want systematic", (*relaySource)(relay).Info().Mode)
	}

	f, err := netio.NewFetcherFromConfig(tcpDial(relay.Addr()), netio.DefaultFetcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("fetch through xor relay: %v (stats %+v)", err, res.Stats)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload not byte-identical through the xor relay")
	}
}

// TestXorRelayLeafSweptWhileFilling: a leaf that dials an XOR relay while the
// relay still fills over a slow link from a systematic origin is swept the
// relay's held records as they arrive — the origin's source blocks, as XNC2
// — and decodes byte-identical from them alone: n × segments records, none
// dependent, no need record.
func TestXorRelayLeafSweptWhileFilling(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize()-7, 32)
	ocfg := netio.DefaultServerConfig()
	ocfg.Seed = 4
	ocfg.Mode = netio.ModeSystematic
	_, ol := startOrigin(t, media, p, ocfg)
	// A 5 ms stall every ~256 bytes read fills the relay over ~60 ms.
	up, _ := faultnet.Dialer(faultnet.Config{Seed: 4, StallEvery: 256, Stall: 5 * time.Millisecond, MaxReadChunk: 256}, tcpDial(ol.Addr().String()))

	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	relay, err := StartRelay(ctx, RelayConfig{
		ID: "rx", Upstream: up, Listener: rln,
		Seed:       14,
		ServerOpts: []netio.ServerOption{func(c *netio.ServerConfig) { c.Metrics = reg }},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	if full := 2 * p.BlockCount; relay.TotalRank() >= full {
		t.Skipf("relay already full (rank %d) when the leaf dialed", relay.TotalRank())
	}

	f, err := netio.NewFetcherFromConfig(tcpDial(relay.Addr()), netio.DefaultFetcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(ctx)
	if err != nil || !bytes.Equal(res.Payload, media) {
		t.Fatalf("fetch through a filling xor relay: %v (stats %+v)", err, res.Stats)
	}
	asks, _ := reg.CounterValue("netio.need_records")
	if res.Stats.Records != 2*p.BlockCount || res.Stats.Dependent != 0 || asks != 0 || relay.recoded() != 0 {
		t.Fatalf("%d records, %d dependent, %d need records, %d recoded: want %d, none, none and none", res.Stats.Records, res.Stats.Dependent, asks, relay.recoded(), 2*p.BlockCount)
	}
}

// tapConn records every byte read from the connection it wraps.
type tapConn struct {
	net.Conn
	mu  sync.Mutex
	buf []byte
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.buf = append(c.buf, p[:n]...)
	c.mu.Unlock()
	return n, err
}

// tapDial dials through base and records every connection it opened.
func tapDial(base netio.DialFunc, taps *[]*tapConn, mu *sync.Mutex) netio.DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		c, err := base(ctx)
		if err != nil {
			return nil, err
		}
		tc := &tapConn{Conn: c}
		mu.Lock()
		*taps = append(*taps, tc)
		mu.Unlock()
		return tc, nil
	}
}

// hopRecords parses what a client read on one connection: the session
// header's flags word and the magic of every complete record after it.
func hopRecords(t *testing.T, wire []byte) (flags uint32, magics map[string]int) {
	t.Helper()
	if len(wire) < 8 || string(wire[:4]) != "XNCP" {
		t.Fatalf("connection opened with % x, not a session header", wire[:min(len(wire), 8)])
	}
	body := int(binary.BigEndian.Uint32(wire[4:]))
	flags = binary.BigEndian.Uint32(wire[8+28:])
	magics = make(map[string]int)
	for rest := wire[8+body+4:]; len(rest) >= 4; {
		n := int(binary.BigEndian.Uint32(rest))
		if len(rest) < 4+n {
			break // the connection closed mid-record
		}
		magics[string(rest[4:8])]++
		rest = rest[4+n:]
	}
	return flags, magics
}

// TestRelayHopsCarryTheirRecords: origin → relay → leaf, tapped on both hops.
// The origin→relay hop is a counter session — the flag set and every record
// an XNC3 counter record, absorbed by the relay's recoders — and so is the
// relay→leaf hop, dialed once the relay holds every segment whole: the
// relay's held records, forwarded as they arrived, under the key it
// re-declared. The leaf decodes byte for byte.
func TestRelayHopsCarryTheirRecords(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 3*p.SegmentSize()-11, 21)
	_, ol := startOrigin(t, media, p, netio.DefaultServerConfig())
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var mu sync.Mutex
	var up, down []*tapConn
	relay, err := StartRelay(ctx, RelayConfig{
		ID: "r0", Upstream: tapDial(tcpDial(ol.Addr().String()), &up, &mu), Listener: rln, Seed: 9,
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
	f, err := netio.NewFetcherFromConfig(tapDial(tcpDial(relay.Addr()), &down, &mu), netio.DefaultFetcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(ctx)
	if err != nil || !bytes.Equal(res.Payload, media) {
		t.Fatalf("fetch through relay: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, hop := range []struct {
		name  string
		taps  []*tapConn
		flag  uint32
		magic string
	}{{"origin→relay", up, 1 << 2, "XNC3"}, {"relay→leaf", down, 1 << 2, "XNC3"}} {
		if len(hop.taps) == 0 {
			t.Fatalf("%s: no connection was tapped", hop.name)
		}
		for _, tc := range hop.taps {
			tc.mu.Lock()
			flags, magics := hopRecords(t, tc.buf)
			tc.mu.Unlock()
			if flags != hop.flag || len(magics) != 1 || magics[hop.magic] == 0 {
				t.Fatalf("%s: flags %#x and records %v, want flags %#x and %s records only", hop.name, flags, magics, hop.flag, hop.magic)
			}
			t.Logf("%s: flags %#x, %v", hop.name, flags, magics)
		}
	}
	if st := relay.fetched.Stats; st.Corrupt+st.Malformed+st.BadSegment != 0 {
		t.Fatalf("the relay rejected upstream records: %+v", st)
	}
}

// TestTracingWritesNoRecordByte: tracing rides the session header alone. A
// traced and an untraced server over the same media, params, mode and seed
// write the same bytes after their headers — a dense counter session's first
// grant, a systematic sweep, and one hop on, a relay's sweep of the rows it
// holds — and RawClient.Next reports the same wire size for every record.
// The traced header is longer by exactly its two trace-context TLV fields.
func TestTracingWritesNoRecordByte(t *testing.T) {
	trace.Enable(1 << 14)
	defer trace.Disable()
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	const segments = 2
	n := p.BlockCount
	media := testMedia(t, segments*p.SegmentSize()-5, 51)
	// session reads records records from addr through a RawClient and returns
	// the header's length, the bytes the records took after it, and the wire
	// size Next reported for each.
	session := func(t *testing.T, addr string, records int) (header int, wire []byte, sizes []int) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		tc := &tapConn{Conn: conn}
		rc, err := netio.NewRawClient(tc)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for range records {
			size, err := rc.Next()
			if err != nil {
				t.Fatalf("record %d of %d: %v", len(sizes), records, err)
			}
			sizes = append(sizes, size)
			total += size
		}
		rc.Close()
		tc.mu.Lock()
		defer tc.mu.Unlock()
		header = 8 + int(binary.BigEndian.Uint32(tc.buf[4:])) + 4
		return header, tc.buf[header : header+total], sizes
	}
	for _, tc := range []struct {
		name    string
		mode    netio.WireMode
		relay   bool
		records int
	}{
		{"dense", netio.ModeDense, false, segments * (n + 2)},
		{"systematic", netio.ModeSystematic, false, segments * n},
		{"relay", netio.ModeDense, true, segments * n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var headers []int
			var wires [][]byte
			var sizes [][]int
			for _, node := range []string{"", "origin"} {
				cfg := netio.DefaultServerConfig()
				cfg.Seed, cfg.Mode, cfg.TraceNode = 7, tc.mode, node
				_, ol := startOrigin(t, media, p, cfg)
				addr := ol.Addr().String()
				if tc.relay {
					rln, err := net.Listen("tcp", "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
					defer cancel()
					relay, err := StartRelay(ctx, RelayConfig{ID: "r0", Upstream: tcpDial(addr), Listener: rln, Seed: 9})
					if err != nil {
						t.Fatal(err)
					}
					defer relay.Close()
					for relay.TotalRank() < segments*n {
						if ctx.Err() != nil {
							t.Fatalf("relay stuck at rank %d", relay.TotalRank())
						}
						time.Sleep(time.Millisecond)
					}
					if _, _, traced := relay.upFetch.TraceContext(); traced != (node != "") {
						t.Fatalf("relay over origin %q: traced upstream %v", node, traced)
					}
					addr = relay.Addr()
				}
				header, wire, size := session(t, addr, tc.records)
				headers, wires, sizes = append(headers, header), append(wires, wire), append(sizes, size)
			}
			if headers[1]-headers[0] != 2*(2+8) {
				t.Fatalf("header %d bytes traced, %d untraced: want the two 10-byte trace TLVs apart", headers[1], headers[0])
			}
			if !slices.Equal(sizes[0], sizes[1]) {
				t.Fatalf("RawClient wire sizes differ: untraced %v, traced %v", sizes[0], sizes[1])
			}
			if !bytes.Equal(wires[0], wires[1]) {
				t.Fatalf("the %d records after the header differ between untraced and traced servers", tc.records)
			}
			t.Logf("%d records, %d bytes after headers of %d and %d bytes", tc.records, len(wires[0]), headers[0], headers[1])
		})
	}
}

// TestRelayKeepsOneBasis: a relay filled from an origin, with no leaf
// attached, decodes nothing — neither the dense decoder's nor the GF(2)
// absorb's stage records a sample — while each structurally valid upstream
// record is absorbed once, into the recoders. Its upstream fetch ends at full
// rank with no payload and no segments. Once from a dense origin, once from a
// systematic origin into an XOR-recode relay.
func TestRelayKeepsOneBasis(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	const segments = 3
	for _, tc := range []struct {
		name string
		mode netio.WireMode
	}{{"dense", netio.ModeDense}, {"systematic", netio.ModeSystematic}} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			obs.SetSink(reg)
			defer obs.SetSink(nil)
			ocfg := netio.DefaultServerConfig()
			ocfg.Mode = tc.mode
			_, ol := startOrigin(t, testMedia(t, segments*p.SegmentSize()-9, 17), p, ocfg)
			rln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			relay, err := StartRelay(ctx, RelayConfig{
				ID: "r0", Upstream: tcpDial(ol.Addr().String()), Listener: rln, Seed: 5,
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
			if relay.fetchErr != nil {
				t.Fatal(relay.fetchErr)
			}
			res := relay.fetched
			if res.Payload != nil || len(res.Segments) != 0 {
				t.Fatalf("the upstream fetch built a %d-byte payload and %d segments", len(res.Payload), len(res.Segments))
			}
			if got := relay.TotalRank(); got != segments*p.BlockCount {
				t.Fatalf("relay rank %d, want %d", got, segments*p.BlockCount)
			}
			count := func(stage string) int64 {
				v, _ := reg.HistogramView(stage)
				return v.Count
			}
			if dense, xor := count("rlnc.absorb"), count("rlnc.xor_absorb"); dense+xor != 0 {
				t.Fatalf("the relay decoded: rlnc.absorb %d samples, rlnc.xor_absorb %d", dense, xor)
			}
			st := res.Stats
			valid := int64(st.Records - st.Corrupt - st.Malformed - st.BadSegment)
			if got := count("mesh.relay_absorb"); got != valid || relay.tapped() != valid || valid < segments*int64(p.BlockCount) {
				t.Fatalf("mesh.relay_absorb %d samples, %d tapped, for %d valid upstream records", got, relay.tapped(), valid)
			}
		})
	}
}

// TestRelayRankMonotoneUnderUpstreamChaos: a relay whose upstream link
// corrupts records and resets the connection keeps its recoders' rank across
// every reconnect — the bank is all the fetch keeps — and still fills. Rank is
// read at every handshake and after every absorbed record.
func TestRelayRankMonotoneUnderUpstreamChaos(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	const segments = 4
	_, ol := startOrigin(t, testMedia(t, segments*p.SegmentSize(), 19), p, netio.DefaultServerConfig())
	var faults faultnet.Counters
	var seq atomic.Int64
	up := chaosDial(faultnet.Config{Seed: 29, CorruptEvery: 1500, ResetEvery: 4000, MaxReadChunk: 2048},
		&faults, &seq, tcpDial(ol.Addr().String()))
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Both hooks run on the relay's fetch goroutine; the relay is published
	// once StartRelay returns, which may be after the first records.
	var started atomic.Pointer[Relay]
	var prev []int
	checks := 0
	check := func() {
		r := started.Load()
		if r == nil {
			return
		}
		ranks := make([]int, (*relaySource)(r).Info().Segments)
		for seg := range ranks {
			ranks[seg] = (*relayBank)(r).Rank(uint32(seg))
		}
		for seg := range prev {
			if ranks[seg] < prev[seg] {
				t.Errorf("segment %d rank fell %d -> %d", seg, prev[seg], ranks[seg])
			}
		}
		prev = ranks
		checks++
	}
	relay, err := StartRelay(ctx, RelayConfig{
		ID: "r0", Upstream: up, Listener: rln, Seed: 3,
		FetchOpts: []netio.FetcherOption{
			func(c *netio.FetcherConfig) { c.BackoffBase, c.BackoffMax = time.Millisecond, 10*time.Millisecond },
			netio.WithSessionHook(func(netio.SessionInfo) { check() }),
			netio.WithRecordTap(func(*rlnc.CodedBlock) { check() }),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	started.Store(relay)
	select {
	case <-relay.fetchDone:
	case <-ctx.Done():
		t.Fatalf("relay stuck at rank %d (faults %+v)", relay.TotalRank(), faults.View())
	}
	if relay.fetchErr != nil {
		t.Fatal(relay.fetchErr)
	}
	if got := relay.TotalRank(); got != segments*p.BlockCount {
		t.Fatalf("relay rank %d, want %d", got, segments*p.BlockCount)
	}
	st, view := relay.fetched.Stats, faults.View()
	if st.Reconnects < 2 || view.Resets < 2 || view.Corruptions == 0 {
		t.Fatalf("the upstream link barely misbehaved: stats %+v, faults %+v", st, view)
	}
	if checks == 0 {
		t.Fatal("rank was never checked")
	}
}

// TestRelayRestartKeepsOwnTrace: two traced relays configured from one shared
// ServerOpts slice with spare capacity must not see each other's trace
// context. StartRelay applies the options to a server config the relay owns,
// so the server a Restart builds is still labelled as its own relay, joins its
// own upstream's trace, and parents under its own upstream's root span.
func TestRelayRestartKeepsOwnTrace(t *testing.T) {
	trace.Enable(1 << 12)
	defer trace.Disable()
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	shared := make([]netio.ServerOption, 1, 4)
	shared[0] = func(c *netio.ServerConfig) { c.QueueDepth = 32 }

	var relays [2]*Relay
	for i := range relays {
		ocfg := netio.DefaultServerConfig()
		ocfg.Seed = int64(i + 1)
		ocfg.TraceNode = fmt.Sprintf("origin-%d", i)
		_, ol := startOrigin(t, testMedia(t, p.SegmentSize(), int64(70+i)), p, ocfg)
		rln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		relays[i], err = StartRelay(ctx, RelayConfig{
			ID: fmt.Sprintf("relay-%d", i), Upstream: tcpDial(ol.Addr().String()),
			Listener: rln, Seed: 9, ServerOpts: shared,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer relays[i].Close()
	}
	upTrace, upRoot, ok := relays[0].upFetch.TraceContext()
	if !ok {
		t.Fatal("relay-0 upstream handshake was not traced")
	}
	if otherTrace, _, _ := relays[1].upFetch.TraceContext(); otherTrace == upTrace {
		t.Fatal("the two origins minted the same trace ID")
	}

	addr, err := relays[0].Restart(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f, err := netio.NewFetcherFromConfig(tcpDial(addr), netio.DefaultFetcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Fetch(ctx); err != nil {
		t.Fatalf("fetch from restarted relay-0: %v", err)
	}
	downTrace, downRoot, ok := f.TraceContext()
	if !ok {
		t.Fatal("restarted relay-0 serves untraced")
	}
	if downTrace != upTrace {
		t.Fatalf("restarted relay-0 declares trace %x, want its own upstream's %x", downTrace, upTrace)
	}
	// The server's root span is published when it shuts down.
	relays[0].Close()
	for _, e := range trace.Dump() {
		if e.Span != downRoot {
			continue
		}
		if e.Node != "relay-0" || e.Parent != upRoot {
			t.Fatalf("restarted relay-0 root span: node %q parent %x, want node relay-0 parent %x",
				e.Node, e.Parent, upRoot)
		}
		return
	}
	t.Fatal("restarted relay-0 published no root span")
}

// TestMeshSmoke is the end-to-end CI gate for the relay mesh: origin → 3
// recoding relays → leaves, over loopback with faultnet corruption and
// resets on both tiers, with the origin capped to 2 concurrent sessions.
//
// Three legs, one mesh:
//
//  1. Throughput: with the relays warmed, 4 leaves fetch through the relay
//     tier; then the same 4 fetches run directly against the
//     single-session origin through identical chaos. Every chaos reset
//     sends a direct fetcher back through the session cap to contend with
//     three rivals, while mesh leaves reconnect to relays that never turn
//     anyone away — the relay tier must move the aggregate faster, which
//     is the fan-out claim of the relay architecture.
//  2. Kill: 4 more leaves start, and once they are demonstrably
//     mid-transfer, 2 of the 3 relays are killed abruptly (closed, sockets
//     and all). Every leaf must still complete byte-identical, with zero
//     rank regression across all its reconnects.
//  3. Control plane: one health sweep must declare exactly the two kills
//     dead, and remediation must have moved leaves, all visible in one
//     Prometheus text exposition scraped through the in-repo parser.
func TestMeshSmoke(t *testing.T) {
	flightDumpOnFailure(t)
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	media := testMedia(t, 4*p.SegmentSize()-21, 77)

	reg := obs.NewRegistry()
	obs.SetSink(reg)
	defer obs.SetSink(nil)

	// Wave-2 leaves (ID >= 4) carry the kill trigger in their record taps:
	// after 30 records tapped across the wave — mid-transfer, a leaf needs
	// 64+ — two relays die abruptly.
	var m *Mesh
	var wave2Records atomic.Int64
	var killOnce sync.Once
	killed := make(chan struct{})
	topo := Topology{
		Media:  media,
		Params: p,
		Relays: 3,
		// One origin session at a time: the throughput leg's baseline rests on
		// this cap, not on a slow origin — every reset sends a direct fetcher
		// back through it, behind three rivals and its own backoff.
		OriginMaxSessions: 1,
		// Systematic origin + GF(2) XOR relays: the cheap-relay fast path,
		// end to end — binary recombinations travel as compact XNC2 records.
		OriginMode: netio.ModeSystematic,
		Seed:       7,
		Registry:   reg,
		Sweep:      25 * time.Millisecond,
		StallAfter: time.Second,
		UpstreamFaults: &faultnet.Config{
			Seed: 11, CorruptEvery: 9000, ResetEvery: 6000, MaxReadChunk: 2048,
		},
		DownstreamFaults: &faultnet.Config{
			Seed: 13, CorruptEvery: 9000, ResetEvery: 5000, MaxReadChunk: 2048,
		},
		LeafFetchOpts: func(leaf int) []netio.FetcherOption {
			if leaf < 4 {
				return nil
			}
			return []netio.FetcherOption{netio.WithRecordTap(func(*rlnc.CodedBlock) {
				if wave2Records.Add(1) == 30 {
					killOnce.Do(func() {
						if err := m.KillRelay("relay-0"); err != nil {
							t.Error(err)
						}
						if err := m.KillRelay("relay-1"); err != nil {
							t.Error(err)
						}
						close(killed)
					})
				}
			})}
		},
	}
	var err error
	m, err = New(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Warm the relay tier: every relay holds the full object before the
	// measured wave starts (their fetches released the origin's only
	// session slot on completion).
	warmCtx, warmCancel := context.WithTimeout(ctx, time.Minute)
	err = m.WaitWarm(warmCtx)
	warmCancel()
	if err != nil {
		t.Fatalf("%v: %+v", err, m.Control().Snapshot())
	}

	// Leg 1a: the mesh wave.
	meshStart := time.Now()
	for range 4 {
		if _, err := m.AddLeaf(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.WaitLeaves(ctx); err != nil {
		t.Fatalf("mesh wave: %v", err)
	}
	meshElapsed := time.Since(meshStart)
	for _, leaf := range m.Leaves() {
		res, _ := leaf.Result()
		if !bytes.Equal(res.Payload, media) {
			t.Fatalf("leaf %d payload differs", leaf.ID)
		}
		t.Logf("mesh leaf %d: %v, records %d, reconnects %d, stats %+v",
			leaf.ID, leaf.Duration(), leaf.Records(), leaf.Reconnects(), res.Stats)
	}

	// Leg 1b: the same four transfers straight off the session-capped
	// origin, through an identical chaos layer. Rejected connections (cap)
	// and injected resets both surface as reconnect attempts.
	var baseCtr faultnet.Counters
	var baseSeq atomic.Int64
	baseStart := time.Now()
	var wg sync.WaitGroup
	baseErr := make([]error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dial := chaosDial(*topo.DownstreamFaults, &baseCtr, &baseSeq, tcpDial(m.OriginAddr()))
			fcfg := netio.DefaultFetcherConfig()
			fcfg.BackoffBase, fcfg.BackoffMax = 2*time.Millisecond, 50*time.Millisecond
			fcfg.Seed = int64(9000 + i)
			f, err := netio.NewFetcherFromConfig(dial, fcfg)
			if err != nil {
				baseErr[i] = err
				return
			}
			res, err := f.Fetch(ctx)
			if err != nil {
				baseErr[i] = err
				return
			}
			if !bytes.Equal(res.Payload, media) {
				baseErr[i] = errFetchDiffers
			}
		}(i)
	}
	wg.Wait()
	baseElapsed := time.Since(baseStart)
	for i, err := range baseErr {
		if err != nil {
			t.Fatalf("baseline fetch %d: %v", i, err)
		}
	}
	t.Logf("aggregate 4-leaf transfer: mesh %v, capped-origin baseline %v", meshElapsed, baseElapsed)
	if meshElapsed >= baseElapsed {
		t.Errorf("relay tier did not beat the capped origin: mesh %v >= baseline %v", meshElapsed, baseElapsed)
	}

	// Leg 2: a second wave of leaves, with 2 of 3 relays killed mid-way.
	wave2 := make([]*Leaf, 0, 4)
	for i := 0; i < 4; i++ {
		leaf, err := m.AddLeaf(ctx)
		if err != nil {
			t.Fatal(err)
		}
		wave2 = append(wave2, leaf)
	}
	if err := m.WaitLeaves(ctx, wave2...); err != nil {
		t.Fatalf("kill wave: %v (snapshot %+v)", err, m.Snapshot())
	}
	select {
	case <-killed:
	default:
		t.Fatal("kill trigger never fired: wave 2 finished under 30 records?")
	}
	for _, leaf := range wave2 {
		res, _ := leaf.Result()
		if !bytes.Equal(res.Payload, media) {
			t.Fatalf("post-kill leaf %d payload differs", leaf.ID)
		}
	}

	// Leg 2b: a leaf on a link that damages records but never resets, on
	// the surviving relay. The relay holds every segment whole, so it sweeps
	// the leaf its held rows and owes it nothing more; the leaf reads the
	// sweep short and must ask, and the relay recodes for it.
	var askCtr faultnet.Counters
	var askSeq atomic.Int64
	acfg := netio.DefaultFetcherConfig()
	acfg.BackoffBase, acfg.BackoffMax = 2*time.Millisecond, 50*time.Millisecond
	ask, err := netio.NewFetcherFromConfig(chaosDial(faultnet.Config{Seed: 17, CorruptEvery: 3000, MaxReadChunk: 2048}, &askCtr, &askSeq, tcpDial(m.Relays()[2].Addr())), acfg)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := ask.Fetch(ctx); err != nil || !bytes.Equal(res.Payload, media) {
		t.Fatalf("asking leaf on relay-2: %v", err)
	} else {
		t.Logf("asking leaf: records %d, %d damaged bytes, stats %+v", res.Stats.Records, askCtr.View().Corruptions, res.Stats)
	}

	// Monotone rank: no leaf reconnect, across both waves and the kills,
	// may ever lose decoder rank.
	if v, _ := reg.CounterValue("mesh.rank_regressions_total"); v != 0 {
		t.Fatalf("rank regressed %d times across reconnects", v)
	}

	// Leg 3: the control plane saw it all. A killed relay is closed, so one
	// more sweep buries it if the remediation loop has not yet.
	m.Control().Step()
	if v, _ := reg.CounterValue("mesh.relay_deaths_total"); v != 2 {
		t.Fatalf("health sweeps declared %d deaths, want 2 (members %+v)", v, m.Control().Snapshot())
	}

	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Key()] = s.Value
	}
	for _, want := range []struct {
		name string
		min  float64
	}{
		{"mesh_remediations_total", 1},
		{"mesh_relay_deaths_total", 2},
		{"mesh_health_sweeps_total", 1},
		{"mesh_records_tapped_total", float64(3 * 4 * p.BlockCount)}, // 3 relays warmed fully
		{"mesh_blocks_recoded_total", 1},
		{"mesh_assignments_total", 8},
		{"mesh_leaf_completions_total", 8},
		{"netio_sessions_total", 1},
		{"faultnet_up_resets", 1},
		{"faultnet_up_corruptions", 1},
		{"faultnet_down_resets", 1},
	} {
		if got, ok := byName[want.name]; !ok || got < want.min {
			t.Errorf("exposition %s = %v (present %v), want >= %v", want.name, got, ok, want.min)
		}
	}

	// Leaves read only from relays, and each of the 8 decoded 4 segments.
	if sent := byName["mesh_relay0_blocks_sent"] + byName["mesh_relay1_blocks_sent"] + byName["mesh_relay2_blocks_sent"]; sent < float64(8*4*p.BlockCount) {
		t.Errorf("relays sent %v records to 8 leaves, want >= %d", sent, 8*4*p.BlockCount)
	}

	snap := m.Snapshot()
	if snap.Remediations < 1 {
		t.Fatalf("snapshot remediations = %d, want >= 1", snap.Remediations)
	}
	for _, lv := range snap.Leaves {
		if !lv.Done || lv.Error != "" {
			t.Fatalf("snapshot leaf %+v not cleanly done", lv)
		}
	}
}

// errFetchDiffers avoids a testing.T capture inside the baseline goroutine.
var errFetchDiffers = errDiff{}

type errDiff struct{}

func (errDiff) Error() string { return "payload differs" }

// TestRestartRelayReroutesWithoutASweep: a restart must move the drained
// relay's leaf onto the survivor itself, as the control plane would assign
// to it, not leave it for remediation. The sweep never fires here, so the
// restart alone can move the leaf.
func TestRestartRelayReroutesWithoutASweep(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize(), 93)
	// The leaf parks in its first handshake until released, so it is still
	// routed — and its session on relay-0 holds the drain open — while the
	// restart runs.
	entered, hold := make(chan struct{}), make(chan struct{})
	var enterOnce sync.Once
	m, err := New(Topology{
		Media: media, Params: p, Relays: 2, Seed: 23,
		Sweep: time.Hour, StallAfter: 2 * time.Hour,
		LeafFetchOpts: func(int) []netio.FetcherOption {
			return []netio.FetcherOption{netio.WithSessionHook(func(netio.SessionInfo) {
				enterOnce.Do(func() { close(entered) })
				<-hold
			})}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.WaitWarm(ctx); err != nil {
		t.Fatal(err)
	}
	oldAddr := m.Relays()[0].Addr()
	survivor := m.Relays()[1].Addr()

	leaf, err := m.AddLeaf(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := m.Control().RouteOf(leaf.ID); id != "relay-0" {
		t.Fatalf("leaf assigned to %s, want relay-0 (the first active member)", id)
	}
	<-entered
	restartDone := make(chan error, 1)
	go func() { restartDone <- m.RestartRelay(ctx, "relay-0") }()

	// The route lands on the survivor while relay-0 drains.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if id, _ := m.Control().RouteOf(leaf.ID); id == "relay-1" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("leaf never moved off draining relay-0 (pool %+v)", m.Control().Snapshot())
		}
	}
	if lv := m.Snapshot().Leaves[0]; lv.Target != survivor || lv.Moves != 1 {
		t.Fatalf("leaf view %+v, want target %s after 1 move", lv, survivor)
	}

	// Dials that beat the drain are ordinary sessions; the first one refused
	// must be a BUSY with the relay's retry hint.
	for {
		conn, err := net.Dial("tcp", oldAddr)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := netio.NewRawClient(conn)
		if err == nil {
			rc.Close()
			time.Sleep(time.Millisecond)
			continue
		}
		if !errors.Is(err, netio.ErrAdmissionBusy) {
			t.Fatalf("draining relay-0 answered %q, want BUSY (pool %+v)", err, m.Control().Snapshot())
		}
		break
	}
	if st, _ := m.Control().StateOf("relay-0"); st != StateDraining {
		t.Fatalf("relay-0 is %v mid-drain, want draining", st)
	}

	// Released, the leaf reads its session on relay-0 to full rank, which
	// lets the drain finish.
	close(hold)
	if err := <-restartDone; err != nil {
		t.Fatal(err)
	}
	if err := m.WaitLeaves(ctx, leaf); err != nil {
		t.Fatal(err)
	}
	if res, _ := leaf.Result(); !bytes.Equal(res.Payload, media) {
		t.Fatal("leaf payload differs")
	}
	if addr, _ := m.Control().Addr("relay-0"); addr == oldAddr || addr != m.Relays()[0].Addr() {
		t.Fatalf("relay-0 rejoined at %q (was %q, serves at %q)", addr, oldAddr, m.Relays()[0].Addr())
	}
}

// TestRestartRelayFinishesAfterDrainTimeout: a drain that outlives its ctx —
// a pinned peer that never reads holds it open — still ends in a restarted
// relay: back in the rotation at a new address that admits sessions, its
// ledger balanced across the cut, and the drain's error returned.
func TestRestartRelayFinishesAfterDrainTimeout(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	m, err := New(Topology{Media: testMedia(t, 2*p.SegmentSize(), 95), Params: p, Relays: 2, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.WaitWarm(ctx); err != nil {
		t.Fatal(err)
	}
	relay := m.Relays()[0]
	oldAddr := relay.Addr()
	conn, err := net.Dial("tcp", oldAddr)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := netio.NewRawClient(conn) // never reads a record
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()

	dctx, dcancel := context.WithTimeout(ctx, 100*time.Millisecond)
	err = m.RestartRelay(dctx, relay.ID())
	dcancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RestartRelay past its drain deadline = %v, want DeadlineExceeded", err)
	}
	if st, _ := m.Control().StateOf(relay.ID()); st != StateActive {
		t.Fatalf("%s is %v after its restart, want active: %+v", relay.ID(), st, m.Control().Snapshot())
	}
	addr, _ := m.Control().Addr(relay.ID())
	if addr == oldAddr || addr != relay.Addr() {
		t.Fatalf("pool addr %q, relay addr %q, old addr %q", addr, relay.Addr(), oldAddr)
	}
	conn, err = net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := netio.NewRawClient(conn)
	if err != nil {
		t.Fatalf("restarted relay refused a session: %v", err)
	}
	rc.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if v := relay.Ledger(); v.BlocksOffered == v.BlocksSent+v.BlocksShed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ledger never balanced: %+v", relay.Ledger())
		}
	}
}

// TestSnapshotDuringAddLeaf: a metrics scrape may snapshot the mesh while a
// leaf wave adds leaves (`nc mesh -metrics` does), so Snapshot and AddLeaf
// share the leaf list under a lock. Run under -race.
func TestSnapshotDuringAddLeaf(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize(), 97)
	m, err := New(Topology{Media: media, Params: p, Relays: 1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.WaitWarm(ctx); err != nil {
		t.Fatal(err)
	}
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				m.Snapshot()
			}
		}
	}()
	const leaves = 8
	for range leaves {
		if _, err := m.AddLeaf(ctx); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-scraped
	if err := m.WaitLeaves(ctx); err != nil {
		t.Fatal(err)
	}
	for _, leaf := range m.Leaves() {
		if res, _ := leaf.Result(); !bytes.Equal(res.Payload, media) {
			t.Fatalf("leaf %d payload differs", leaf.ID)
		}
	}
	if n := len(m.Snapshot().Leaves); n != leaves {
		t.Fatalf("snapshot holds %d leaves, want %d", n, leaves)
	}
}

// TestMeshRollingRestart is the drain gate: relays are restarted in sequence
// under faultnet chaos while leaves fetch through them, and nothing may be
// lost. Each restart moves the draining relay's leaves onto a survivor — which
// they must reach with all their rank on their next reconnect — drains, and
// rejoins the rotation at a fresh address. Afterwards: zero failed leaves,
// every payload byte-identical, zero rank regressions, a moved leaf's
// handshake with a survivor inside each drain window, no remediation, and the
// per-relay ledgers — drained and surviving alike, accumulated across
// restarts — balance exactly in one scraped exposition.
func TestMeshRollingRestart(t *testing.T) {
	flightDumpOnFailure(t)
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	media := testMedia(t, 4*p.SegmentSize()-13, 91)

	// handshakes counts each leaf's sessions (two waves of three leaves).
	var handshakes [6]atomic.Int64
	reg := obs.NewRegistry()
	topo := Topology{
		Media:      media,
		Params:     p,
		Relays:     3,
		OriginMode: netio.ModeSystematic,
		Seed:       19,
		Registry:   reg,
		// Remediation swept rarely on purpose: RestartRelay's own reroute,
		// not the health sweep, must be what moves leaves off the draining
		// relays.
		Sweep:      5 * time.Second,
		StallAfter: 10 * time.Second,
		UpstreamFaults: &faultnet.Config{
			Seed: 41, CorruptEvery: 9000, ResetEvery: 6000, MaxReadChunk: 2048,
		},
		// Reset-heavy downstream chaos: every leaf connection dies within
		// ~8KB — well short of the ~20KB object — so every leaf reconnects
		// repeatedly and a moved leaf soon dials its new relay. A 20 ms stall
		// every ~1KB a leaf reads holds each wave mid-transfer for hundreds of
		// milliseconds: warm relays sweep as fast as the link takes it, so
		// without it a wave can finish before RestartRelay moves it.
		DownstreamFaults: &faultnet.Config{
			Seed: 43, CorruptEvery: 9000, ResetEvery: 4000, MaxReadChunk: 2048,
			StallEvery: 1024, Stall: 20 * time.Millisecond,
		},
		// The retry-after hint exercises the RelayServerOpts plumbing end to
		// end.
		RelayServerOpts: func(relay int) []netio.ServerOption {
			return []netio.ServerOption{func(c *netio.ServerConfig) {
				c.RetryAfter = 5 * time.Millisecond
			}}
		},
		LeafFetchOpts: func(leaf int) []netio.FetcherOption {
			return []netio.FetcherOption{netio.WithSessionHook(func(netio.SessionInfo) {
				handshakes[leaf].Add(1)
			})}
		},
	}
	m, err := New(topo)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	if err := m.Start(ctx); err != nil {
		t.Fatal(err)
	}
	defer m.Close()

	// Warm every relay so leaves never depend on the origin.
	warmCtx, warmCancel := context.WithTimeout(ctx, time.Minute)
	err = m.WaitWarm(warmCtx)
	warmCancel()
	if err != nil {
		t.Fatalf("%v: %+v", err, m.Control().Snapshot())
	}

	// rollRestart restarts relayID mid-wave and verifies its leaves moved: a
	// pinned raw session holds the drain window open until a leaf that was
	// routed to relayID has been rerouted and has handshaken again — with the
	// survivor its route now names.
	rollRestart := func(relayID string, relay *Relay, leaves []*Leaf) {
		t.Helper()
		pinConn, err := net.Dial("tcp", relay.Addr())
		if err != nil {
			t.Fatal(err)
		}
		pinned, err := netio.NewRawClient(pinConn)
		if err != nil {
			t.Fatal(err)
		}
		pinDone := make(chan struct{})
		go func() {
			defer close(pinDone)
			for {
				if _, err := pinned.Next(); err != nil {
					return
				}
			}
		}()

		// Every leaf must be demonstrably mid-transfer before the drain.
		for deadline := time.Now().Add(30 * time.Second); ; {
			moving := 0
			for _, leaf := range leaves {
				if leaf.Records() > 0 {
					moving++
				}
			}
			if moving == len(leaves) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("wave never started moving before draining %s", relayID)
			}
			time.Sleep(time.Millisecond)
		}

		var routed []*Leaf
		for _, leaf := range leaves {
			if id, _ := m.Control().RouteOf(leaf.ID); id == relayID {
				routed = append(routed, leaf)
			}
		}
		if len(routed) == 0 {
			t.Fatalf("no wave leaf routed to %s: %v", relayID, m.Control().Routes())
		}
		restartDone := make(chan error, 1)
		go func() { restartDone <- m.RestartRelay(ctx, relayID) }()

		// The pool must report the drain, and a leaf routed to relayID must be
		// moved and handshake again while the pinned session holds the drain
		// open. Its handshake count is taken once its route has moved, so the
		// next handshake is a dial of the survivor.
		sawDraining := false
		movedAt := map[int]int64{}
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			if st, ok := m.Control().StateOf(relayID); ok && st == StateDraining {
				sawDraining = true
			}
			arrived := false
			for _, leaf := range routed {
				base, moved := movedAt[leaf.ID]
				if !moved {
					if id, ok := m.Control().RouteOf(leaf.ID); ok && id != relayID {
						movedAt[leaf.ID] = handshakes[leaf.ID].Load()
					}
					continue
				}
				arrived = arrived || handshakes[leaf.ID].Load() > base
			}
			if arrived {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("no leaf routed to draining %s reached a survivor (moved %v, pool %+v)",
					relayID, movedAt, m.Control().Snapshot())
			}
		}
		if !sawDraining {
			if st, ok := m.Control().StateOf(relayID); !ok || st != StateDraining {
				t.Fatalf("pool never reported %s draining (now %v)", relayID, st)
			}
		}

		// Release the drain window; the restart must complete and the relay
		// must rejoin the active rotation at its new address.
		pinned.Close()
		<-pinDone
		if err := <-restartDone; err != nil {
			t.Fatalf("RestartRelay(%s): %v", relayID, err)
		}
		if st, _ := m.Control().StateOf(relayID); st != StateActive {
			t.Fatalf("%s is %v after its restart, want active", relayID, st)
		}
		addr, _ := m.Control().Addr(relayID)
		if addr != relay.Addr() {
			t.Fatalf("pool addr %q disagrees with relay addr %q after restart", addr, relay.Addr())
		}
	}

	// Rolling restarts: one relay per wave, in sequence.
	for round, relayID := range []string{"relay-0", "relay-1"} {
		var relay *Relay
		for _, r := range m.Relays() {
			if r.ID() == relayID {
				relay = r
			}
		}
		wave := make([]*Leaf, 0, 3)
		for i := 0; i < 3; i++ {
			leaf, err := m.AddLeaf(ctx)
			if err != nil {
				t.Fatal(err)
			}
			wave = append(wave, leaf)
		}
		rollRestart(relayID, relay, wave)
		if err := m.WaitLeaves(ctx, wave...); err != nil {
			t.Fatalf("wave %d: %v (snapshot %+v)", round, err, m.Snapshot())
		}
		for _, leaf := range wave {
			res, _ := leaf.Result()
			if !bytes.Equal(res.Payload, media) {
				t.Fatalf("wave %d leaf %d payload differs", round, leaf.ID)
			}
		}
	}

	// Monotone rank across every reconnect, moves included.
	if v, _ := reg.CounterValue("mesh.rank_regressions_total"); v != 0 {
		t.Fatalf("rank regressed %d times across reconnects", v)
	}
	// The restarts moved the leaves; remediation had nothing to do.
	if n := m.Control().Remediations(); n != 0 {
		t.Fatalf("remediation moved %d leaves", n)
	}

	// The per-relay ledgers — drained relays across their restarts and the
	// untouched survivor alike — must balance exactly once sessions settle.
	balanced := func() bool {
		for _, r := range m.Relays() {
			if v := r.Ledger(); v.BlocksOffered != v.BlocksSent+v.BlocksShed {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(10 * time.Second); !balanced(); {
		if time.Now().After(deadline) {
			for _, r := range m.Relays() {
				t.Logf("%s ledger: %+v", r.ID(), r.Ledger())
			}
			t.Fatal("relay ledgers never balanced after the waves")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// And the same invariant must be visible in one scraped exposition.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		byName[s.Key()] = s.Value
	}
	for i := range m.Relays() {
		offered := byName[fmt.Sprintf("mesh_relay%d_blocks_offered", i)]
		sent := byName[fmt.Sprintf("mesh_relay%d_blocks_sent", i)]
		shed := byName[fmt.Sprintf("mesh_relay%d_blocks_shed", i)]
		if offered == 0 {
			t.Errorf("relay %d exposition ledger empty", i)
		}
		if offered != sent+shed {
			t.Errorf("relay %d exposition ledger: offered %v != sent %v + shed %v",
				i, offered, sent, shed)
		}
	}
}
