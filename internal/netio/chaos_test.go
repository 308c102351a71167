package netio

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

// TestChaosFetch is the acceptance test for the fault-injection layer and
// the resilient client together: a full fetch through a faultnet link that
// corrupts bytes, stalls reads, and hard-resets the connection over and
// over must still complete byte-identical, with every reconnect carrying
// the accumulated decoder rank forward.
//
// It is also the observability acceptance gate: server, fetcher, and chaos
// link all register into one obs.Registry with stage spans enabled, and a
// single text-format exposition taken during the run must carry the server
// block counters, the fetcher reconnect/backoff ledger, the faultnet
// injection counters, and at least three stage-latency histograms with
// nonzero p50/p99.
//
// The fault rates are picked against the record size (96 wire bytes at
// n=8, k=64): roughly one corrupted byte per ~15 records (~1% of wire
// bytes land in a damaged record's frame) and a reset every ~600–1200
// stream bytes, far below the ~4KB a clean session needs — so no single
// connection can ever finish and the client is forced through many
// resynchronizations.
func TestChaosFetch(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 4*p.SegmentSize()-13, 99)

	reg := obs.NewRegistry()
	obs.SetSink(reg)
	defer obs.SetSink(nil)

	cfg := DefaultServerConfig()
	cfg.Metrics = reg
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	defer stopServe()
	go srv.Serve(serveCtx, l)
	defer srv.Shutdown()

	dial, ctr := faultnet.Dialer(faultnet.Config{
		Seed:         4242,
		CorruptEvery: 1500,
		ResetEvery:   600,
		StallEvery:   2000,
		Stall:        time.Millisecond,
		MaxReadChunk: 512,
	}, func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", l.Addr().String())
	})
	if err := ctr.Register(reg, "faultnet"); err != nil {
		t.Fatal(err)
	}

	prev := map[uint32]int{}
	var f *Fetcher
	fcfg := DefaultFetcherConfig()
	fcfg.BackoffBase = time.Millisecond
	fcfg.BackoffMax = 10 * time.Millisecond
	fcfg.Seed = 7
	fcfg.Metrics = reg
	fcfg.SessionHook = func(SessionInfo) {
		for id, r := range f.Ranks() {
			if r < prev[id] {
				panic(fmt.Sprintf("reconnect %d lost rank on segment %d: %d -> %d", f.Stats().Reconnects, id, prev[id], r))
			}
			prev[id] = r
		}
	}
	f = newTestFetcher(t, dial, fcfg)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("chaos fetch failed: %v (stats %+v, faults %+v)", err, res.Stats, ctr.View())
	}

	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload not byte-identical through the chaos link")
	}
	faults := ctr.View()
	if faults.Resets < 3 {
		t.Fatalf("link injected %d resets, want >= 3 (ResetEvery too large for the transfer?)", faults.Resets)
	}
	if faults.Corruptions == 0 {
		t.Fatal("link injected no corruption")
	}
	if res.Stats.Reconnects < 3 {
		t.Fatalf("reconnects = %d, want >= 3; faults %+v, stats %+v", res.Stats.Reconnects, faults, res.Stats)
	}
	if res.Stats.ResumedRank == 0 {
		t.Fatal("reconnects carried no rank: client restarted from scratch")
	}
	// Zero lost rank, checked two ways: the hook above panics on any
	// regression, and the final ranks are full for every segment.
	for id := uint32(0); id < uint32(srv.Segments()); id++ {
		if res.Ranks[id] != p.BlockCount {
			t.Fatalf("segment %d finished at rank %d of %d", id, res.Ranks[id], p.BlockCount)
		}
	}
	// The damage the link injected must show up in the client's ledger:
	// corrupted record bodies as Corrupt, corrupted length prefixes as
	// framing resyncs. Where each corrupted byte lands depends on the
	// schedule, so only the sum is asserted.
	if res.Stats.Corrupt+res.Stats.FramingResyncs == 0 {
		t.Fatalf("no corruption reached the client ledger: stats %+v, faults %+v", res.Stats, faults)
	}
	if res.Stats.BytesDiscarded == 0 {
		t.Fatal("chaos fetch discarded no bytes")
	}

	assertChaosExposition(t, reg, res.Stats)
}

// TestChaosFetchSystematic is the chaos gate for the negotiated systematic +
// XOR wire mode: the same hostile link (corruption, resets, stalls), but the
// server streams the systematic sweep / GF(2) repair / dense-tail schedule
// with XNC2 records interleaved. The fetch must still complete
// byte-identical with rank carried across every reconnect — and the decoders
// must demonstrably have used the XOR-only fast path, observed through the
// rlnc.xor_absorb stage histogram.
func TestChaosFetchSystematic(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 4*p.SegmentSize()-13, 98)

	reg := obs.NewRegistry()
	obs.SetSink(reg)
	defer obs.SetSink(nil)

	cfg := DefaultServerConfig()
	cfg.Mode = ModeSystematic
	cfg.Metrics = reg
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	defer stopServe()
	go srv.Serve(serveCtx, l)
	defer srv.Shutdown()

	dial, ctr := faultnet.Dialer(faultnet.Config{
		Seed:         2424,
		CorruptEvery: 1500,
		ResetEvery:   600,
		StallEvery:   2000,
		Stall:        time.Millisecond,
		MaxReadChunk: 512,
	}, func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", l.Addr().String())
	})
	if err := ctr.Register(reg, "faultnet"); err != nil {
		t.Fatal(err)
	}

	fcfg := DefaultFetcherConfig()
	fcfg.BackoffBase = time.Millisecond
	fcfg.BackoffMax = 10 * time.Millisecond
	fcfg.Seed = 8
	fcfg.Metrics = reg
	f := newTestFetcher(t, dial, fcfg)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("systematic chaos fetch failed: %v (stats %+v, faults %+v)", err, res.Stats, ctr.View())
	}

	if res.Mode != ModeSystematic {
		t.Fatalf("negotiated mode = %v, want systematic", res.Mode)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload not byte-identical through the chaos link in systematic mode")
	}
	if res.Stats.Reconnects < 3 {
		t.Fatalf("reconnects = %d, want >= 3; faults %+v", res.Stats.Reconnects, ctr.View())
	}
	if res.Stats.ResumedRank == 0 {
		t.Fatal("reconnects carried no rank in systematic mode")
	}
	for id := uint32(0); id < uint32(srv.Segments()); id++ {
		if res.Ranks[id] != p.BlockCount {
			t.Fatalf("segment %d finished at rank %d of %d", id, res.Ranks[id], p.BlockCount)
		}
	}
	// Fast-path proof: the GF(2) absorbs of this fetch (systematic sweep and
	// XOR repair records, before any dense tail arrived) must have landed in
	// the rlnc.xor_absorb stage histogram.
	v, ok := reg.HistogramView("rlnc.xor_absorb")
	if !ok || v.Count == 0 {
		t.Fatalf("rlnc.xor_absorb stage saw no traffic (ok=%v count=%d): XOR fast path never engaged", ok, v.Count)
	}
}

// assertChaosExposition scrapes reg once and checks the unified exposition:
// every surface in one vocabulary, with real latency distributions.
func assertChaosExposition(t *testing.T, reg *obs.Registry, stats *FetchStats) {
	t.Helper()
	// The server is still pumping while the scrape is taken, so histogram
	// counts move between any two reads: bracket the text exposition with a
	// view before and a view after instead of expecting three reads to agree.
	before := map[string]int64{}
	for _, name := range reg.Names() {
		if v, ok := reg.HistogramView(name); ok {
			before[name] = v.Count
		}
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatalf("exposition failed: %v", err)
	}
	samples, err := obs.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		byKey[s.Key()] = s.Value
	}
	// One scrape must carry all four surfaces, nonzero.
	for _, series := range []string{
		// Server block counters.
		"netio_blocks_encoded", "netio_blocks_offered", "netio_blocks_sent",
		"netio_bytes_sent", "netio_sessions_total",
		// Fetcher reconnect/backoff ledger.
		"fetch_attempts", "fetch_reconnects", "fetch_records", "fetch_resumed_rank",
		// Chaos-link injection counters.
		"faultnet_corruptions", "faultnet_resets", "faultnet_conns",
	} {
		if byKey[series] <= 0 {
			t.Errorf("exposition series %s = %v, want > 0", series, byKey[series])
		}
	}
	// The fetcher counters in the registry are the same storage the typed
	// stats view reads — not a parallel ledger.
	if got := int(byKey["fetch_reconnects"]); got != stats.Reconnects {
		t.Errorf("registry fetch_reconnects = %d, FetchStats.Reconnects = %d", got, stats.Reconnects)
	}
	// At least three stage histograms saw traffic, with usable tails.
	withTails := []string{}
	for _, name := range reg.Names() {
		v, ok := reg.HistogramView(name)
		if !ok || v.Count == 0 {
			continue
		}
		if v.P50 > 0 && v.P99 > 0 {
			withTails = append(withTails, name)
		}
		// Every populated histogram must also appear in the text exposition,
		// with a count no view taken around it contradicts.
		if text := byKey[obsCountKey(name)]; text < float64(before[name]) || text > float64(v.Count) {
			t.Errorf("histogram %s: text count %v outside the views taken around it [%d, %d]",
				name, text, before[name], v.Count)
		}
	}
	if len(withTails) < 3 {
		t.Errorf("only %d stage histograms with nonzero p50/p99 (%v), want >= 3",
			len(withTails), withTails)
	}
}

// obsCountKey maps a dotted histogram name to its text-format _count series.
func obsCountKey(name string) string {
	return strings.ReplaceAll(name, ".", "_") + "_count"
}
