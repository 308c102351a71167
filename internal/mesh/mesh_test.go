package mesh

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"net"
	"os"
	"path/filepath"
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
	if relay.Info().Mode != netio.ModeDense {
		t.Fatalf("dense relay declares mode %v", relay.Info().Mode)
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

// warmRelay starts an origin and one relay over it and returns the relay once
// it holds full rank in every segment: a dense origin and relay, or with xor a
// systematic origin — whose sweep alone fills the relay — and an XorRecode
// relay.
func warmRelay(t testing.TB, p rlnc.Params, segments int, xor bool) *Relay {
	t.Helper()
	ocfg := netio.DefaultServerConfig()
	ocfg.Seed = 3
	if xor {
		ocfg.Mode = netio.ModeSystematic
	}
	_, ol := startOrigin(t, testMedia(t, segments*p.SegmentSize(), 6), p, ocfg)
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	relay, err := StartRelay(ctx, RelayConfig{ID: "r0", Upstream: tcpDial(ol.Addr().String()), Listener: rln, Seed: 9, XorRecode: xor})
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

// frameStock stands in for the server's frame pool: a fixed stock of buffers
// handed out round-robin, each long recycled by the time it comes round again.
type frameStock struct {
	bufs [][]byte
	next int
}

func (s *frameStock) alloc(n int) []byte {
	if s.next == len(s.bufs) {
		s.next = 0
	}
	if s.bufs[s.next] == nil {
		s.bufs[s.next] = make([]byte, n)
	}
	s.next++
	return s.bufs[s.next-1][:n]
}

// TestRelayRecordsDoNotAllocate: a warm relay's Records — frames laid out,
// one batch recombination written into them, sealed — allocates nothing once
// its scratch has seen a batch, and every record it returns is a valid block
// of the segment asked for: dense XNC1 from a dense relay, XNC2 from an
// XorRecode relay over binary input (each emission narrowed in its frame). At
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
		stock := &frameStock{bufs: make([][]byte, batch)}
		alloc := stock.alloc
		seg := 0
		round := func() {
			recs := src.Records(seg, batch, alloc)
			if len(recs) != batch {
				t.Fatalf("%d records for a batch of %d", len(recs), batch)
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
		for _, rec := range src.Records(1, batch, alloc) {
			var b rlnc.CodedBlock
			if err := b.UnmarshalRecord(rec[4:]); err != nil || string(rec[4:8]) != magic || b.SegmentID != 1 || b.Params() != p {
				t.Fatalf("recoded record: %v (%q, segment %d, %+v), want %s", err, rec[4:8], b.SegmentID, b.Params(), magic)
			}
		}
	}
}

// BenchmarkDenseRecords: one pump round of a relay at full rank — a batch of
// recombinations recoded straight into frames — per record: dense, and
// XorRecode over binary input, whose emissions are narrowed to XNC2.
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
			batch := p.BlockCount / 4 // the pump's default EncodeBatch
			stock := &frameStock{bufs: make([][]byte, batch)}
			alloc := stock.alloc
			b.SetBytes(int64(p.BlockSize))
			b.ReportAllocs()
			b.ResetTimer()
			for done, seg := 0, 0; done < b.N; done, seg = done+batch, 1-seg {
				if len(src.Records(seg, batch, alloc)) != batch {
					b.Fatal("short batch from a warm relay")
				}
			}
		})
	}
}

// TestXorRelayRecordsMatchEmit: an XorRecode relay's Records — the batch laid
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
	heap := func(n int) []byte { return make([]byte, n) }
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
			cfg:      RelayConfig{XorRecode: true},
			info:     netio.SessionInfo{Params: p, Segments: 1, Length: int64(p.SegmentSize()), Mode: netio.ModeSystematic},
			recoders: []*rlnc.Recoder{recoder()},
			upFetch:  up,
		}
		kinds := map[string]int{}
		for _, batch := range []int{1, 3, 8, 16} {
			recs := (*relaySource)(r).Records(0, batch, heap)
			if len(recs) != batch {
				t.Fatalf("dense tail %v: %d records for a batch of %d", denseTail, len(recs), batch)
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

// TestRelayRefusesHostileSegmentCount: an upstream whose CRC-valid header
// declares 2^16 + 1 segments — with a length that agrees — fails every
// handshake. The relay never learns a session, so it builds no recoder (the
// hook its own session hook runs before never fires), StartRelay gives up when
// its context ends, and the fetch ledger counts the attempts.
func TestRelayRefusesHostileSegmentCount(t *testing.T) {
	const n, k, segments = 4, 64, 1<<16 + 1
	body := binary.BigEndian.AppendUint32(nil, 5) // protocol version
	for _, v := range []uint32{n, k, segments} {
		body = binary.BigEndian.AppendUint32(body, v)
	}
	body = binary.BigEndian.AppendUint64(body, segments*n*k)
	body = binary.BigEndian.AppendUint64(body, 0) // dense mode, no flags
	hdr := binary.BigEndian.AppendUint32([]byte("XNCP"), uint32(len(body)))
	hdr = append(hdr, body...)
	hdr = binary.BigEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))

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
}

// TestRelayXorRecode: a systematic origin feeding an XOR-recode relay. The
// relay re-declares ModeSystematic downstream so its binary recombinations
// travel in the compact XNC2 encoding, and the leaf must still reassemble
// the object exactly.
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
		Seed: 13, XorRecode: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer relay.Close()
	if relay.Info().Mode != netio.ModeSystematic {
		t.Fatalf("xor relay declares mode %v, want systematic", relay.Info().Mode)
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

// TestXorRelayLeafReasks: a leaf that dials an XOR-recode relay while the
// relay still fills from a slow origin is granted GF(2) recombinations of a
// partial basis — dependent records — and asks again for what it lacks until
// it decodes byte-identical: each shortfall costs a round trip, never a hang.
func TestXorRelayLeafReasks(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize()-7, 32)
	ocfg := netio.DefaultServerConfig()
	ocfg.Seed = 4
	ocfg.Pace, ocfg.EncodeBatch = 5*time.Millisecond, 1 // fills the relay over ~80 ms
	_, ol := startOrigin(t, media, p, ocfg)

	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reg := obs.NewRegistry()
	relay, err := StartRelay(ctx, RelayConfig{
		ID: "rx", Upstream: tcpDial(ol.Addr().String()), Listener: rln,
		Seed: 14, XorRecode: true,
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
	if res.Stats.Dependent == 0 || asks == 0 {
		t.Fatalf("dependent %d, need records %d: the leaf never asked again", res.Stats.Dependent, asks)
	}
	t.Logf("%d records, %d dependent, %d need records", res.Stats.Records, res.Stats.Dependent, asks)
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
// an XNC3 counter record, absorbed by the relay's recoders — and the
// relay→leaf hop is a plain dense session of XNC1 records, because a
// recombination has no index to send. The leaf decodes byte for byte.
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
	f, err := netio.NewFetcherFromConfig(tapDial(tcpDial(relay.Addr()), &down, &mu), netio.DefaultFetcherConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Fetch(ctx)
	if err != nil || !bytes.Equal(res.Payload, media) {
		t.Fatalf("fetch through relay: %v", err)
	}
	select {
	case <-relay.fetchDone:
	case <-ctx.Done():
		t.Fatalf("relay stuck at rank %d", relay.TotalRank())
	}
	mu.Lock()
	defer mu.Unlock()
	for _, hop := range []struct {
		name  string
		taps  []*tapConn
		flag  uint32
		magic string
	}{{"origin→relay", up, 1 << 2, "XNC3"}, {"relay→leaf", down, 0, "XNC1"}} {
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
			var tapped obs.Counter
			relay, err := StartRelay(ctx, RelayConfig{
				ID: "r0", Upstream: tcpDial(ol.Addr().String()), Listener: rln, Seed: 5,
				XorRecode: tc.mode == netio.ModeSystematic, Tapped: &tapped,
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
			if got := count("mesh.relay_absorb"); got != valid || tapped.Load() != valid || valid < segments*int64(p.BlockCount) {
				t.Fatalf("mesh.relay_absorb %d samples, %d tapped, for %d valid upstream records", got, tapped.Load(), valid)
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
		ranks := r.SegmentRanks()
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
//     mid-transfer, 2 of the 3 relays are killed abruptly (heartbeats and
//     sockets). Every leaf must still complete byte-identical, with zero
//     rank regression across all its reconnects.
//  3. Control plane: the health detector must declare both kills dead and
//     remediation must have moved leaves, all visible in one Prometheus
//     text exposition scraped through the in-repo parser.
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
		Media:             media,
		Params:            p,
		Relays:            3,
		Leaves:            4,
		OriginMaxSessions: 1,
		// The origin models a capacity-constrained uplink: one session at a
		// time, pump rounds floored at 40ms (~100 records/s). That is the
		// regime a relay tier exists for — and it keeps the mesh-vs-baseline
		// comparison meaningful on single-core CI runners, where parallelism
		// alone cannot shorten wall clock but idle serving capacity can.
		OriginPace: 40 * time.Millisecond,
		// Systematic origin + GF(2) XOR relays: the cheap-relay fast path,
		// end to end — binary recombinations travel as compact XNC2 records.
		OriginMode: netio.ModeSystematic,
		XorRecode:  true,
		Seed:       7,
		Registry:   reg,
		// Failure-detector thresholds sized for -race CI machines: a starved
		// heartbeat ticker must not bury a live relay (death is terminal).
		Heartbeat: 10 * time.Millisecond,
		Sweep:     25 * time.Millisecond,
		Health: HealthConfig{
			SuspectAfter: 250 * time.Millisecond,
			DeadAfter:    time.Second,
		},
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
	if err := m.StartLeaves(ctx); err != nil {
		t.Fatal(err)
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

	// Monotone rank: no leaf reconnect, across both waves and the kills,
	// may ever lose decoder rank.
	if v, _ := reg.CounterValue("mesh.rank_regressions_total"); v != 0 {
		t.Fatalf("rank regressed %d times across reconnects", v)
	}

	// Leg 3: the control plane saw it all. Death declaration lags the kill
	// by the detector thresholds, so poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, _ := reg.CounterValue("mesh.relay_deaths_total"); v >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health detector declared %d deaths, want 2 (pool %+v)",
				func() int64 { v, _ := reg.CounterValue("mesh.relay_deaths_total"); return v }(),
				m.Control().Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
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
		{"mesh_heartbeats_total", 1},
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

// TestRestartRelayReroutesBeforeFirstHeartbeat: a restart that starts in the
// beat between the survivors reaching full rank and their first heartbeat —
// they are still joining — must move the drained relay's leaf onto one of
// them, as the control plane would assign to it, not leave it for remediation.
// The heartbeat and the sweep never fire here, so the window stays open.
func TestRestartRelayReroutesBeforeFirstHeartbeat(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize(), 93)
	// The leaf parks in its first handshake until released, so it is still
	// routed — and its session on relay-0 holds the drain open — while the
	// restart runs.
	entered, hold := make(chan struct{}), make(chan struct{})
	var enterOnce sync.Once
	m, err := New(Topology{
		Media: media, Params: p, Relays: 2, Seed: 23,
		Heartbeat: time.Hour, Sweep: time.Hour,
		Health: HealthConfig{SuspectAfter: time.Hour, DeadAfter: 2 * time.Hour},
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
	for full := 2 * p.BlockCount; ; time.Sleep(time.Millisecond) {
		if m.Relays()[0].TotalRank() == full && m.Relays()[1].TotalRank() == full {
			break
		}
		if ctx.Err() != nil {
			t.Fatalf("relays never reached full rank: %+v", m.Control().Snapshot())
		}
	}
	if st, _ := m.Control().StateOf("relay-1"); st != StateJoining {
		t.Fatalf("relay-1 is %v without a heartbeat, want joining", st)
	}
	oldAddr := m.Relays()[0].Addr()
	survivor := m.Relays()[1].Addr()

	leaf, err := m.AddLeaf(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if id, _ := m.Control().RouteOf(leaf.ID); id != "relay-0" {
		t.Fatalf("leaf assigned to %s, want relay-0 (the first warm member)", id)
	}
	<-entered
	restartDone := make(chan error, 1)
	go func() { restartDone <- m.RestartRelay(ctx, "relay-0") }()

	// The route lands on the joining survivor while relay-0 drains.
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
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if st, _ := m.Control().StateOf(relay.ID()); st == StateActive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s never rejoined the rotation: %+v", relay.ID(), m.Control().Snapshot())
		}
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
		Leaves:     0, // leaves start per wave below
		OriginMode: netio.ModeSystematic,
		XorRecode:  true,
		Seed:       19,
		Registry:   reg,
		Heartbeat:  10 * time.Millisecond,
		// Remediation swept rarely on purpose: RestartRelay's own reroute,
		// not the health sweep, must be what moves leaves off the draining
		// relays.
		Sweep: 5 * time.Second,
		Health: HealthConfig{
			SuspectAfter: 2 * time.Second,
			DeadAfter:    10 * time.Second,
		},
		UpstreamFaults: &faultnet.Config{
			Seed: 41, CorruptEvery: 9000, ResetEvery: 6000, MaxReadChunk: 2048,
		},
		// Reset-heavy downstream chaos: every leaf connection dies within
		// ~8KB — well short of the ~20KB object — so every leaf reconnects
		// repeatedly and a moved leaf soon dials its new relay.
		DownstreamFaults: &faultnet.Config{
			Seed: 43, CorruptEvery: 9000, ResetEvery: 4000, MaxReadChunk: 2048,
		},
		// Paced relay serving keeps each wave in flight long enough to drain
		// a relay mid-transfer; the retry-after hint exercises the
		// RelayServerOpts plumbing end to end.
		RelayServerOpts: func(relay int) []netio.ServerOption {
			return []netio.ServerOption{func(c *netio.ServerConfig) {
				c.Pace = 3 * time.Millisecond
				c.EncodeBatch = 1
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
		for deadline := time.Now().Add(10 * time.Second); ; {
			if st, _ := m.Control().StateOf(relayID); st == StateActive {
				break
			}
			if time.Now().After(deadline) {
				st, _ := m.Control().StateOf(relayID)
				t.Fatalf("%s never rejoined the rotation (state %v)", relayID, st)
			}
			time.Sleep(time.Millisecond)
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
