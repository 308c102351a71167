package netio

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

// TestShardedServeAccounting pins the sharded serving ledger: with four pump
// shards and eight concurrently pinned sessions, the least-loaded assignment
// must spread sessions evenly, and after teardown the offered == sent + shed
// invariant must hold for every shard individually, with the per-shard
// counters summing exactly to the aggregate.
func TestShardedServeAccounting(t *testing.T) {
	const shards = 4
	p := rlnc.Params{BlockCount: 8, BlockSize: 256}
	media := testMedia(t, 2*p.SegmentSize()-17, 55)
	cfg := DefaultServerConfig()
	cfg.PumpShards = shards
	cfg.QueueDepth = 16
	cfg.WriteDeadline = 2 * time.Second
	cfg.Seed = 77
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Shards() != shards {
		t.Fatalf("Shards() = %d, want %d", srv.Shards(), shards)
	}
	l := startPipeServer(t, srv)

	// Phase 1: pin 2×shards raw sessions open simultaneously and check the
	// spread. Sessions join one at a time and pick the least-loaded shard, so
	// with no departures every shard must hold exactly two.
	const pinned = 2 * shards
	conns := make([]net.Conn, pinned)
	for i := range conns {
		conns[i] = l.Dial()
		if _, err := readHandshake(conns[i]); err != nil {
			t.Fatalf("pinned session %d handshake: %v", i, err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); srv.Snapshot().Sessions < pinned; {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d pinned sessions registered", srv.Snapshot().Sessions, pinned)
		}
		time.Sleep(time.Millisecond)
	}
	snap := srv.Snapshot()
	if snap.Version != SnapshotVersion {
		t.Fatalf("snapshot version = %d, want %d", snap.Version, SnapshotVersion)
	}
	if len(snap.Shards) != shards {
		t.Fatalf("snapshot shards = %d, want %d", len(snap.Shards), shards)
	}
	for _, sh := range snap.Shards {
		if sh.Sessions != 2 {
			t.Fatalf("shard %d holds %d sessions, want 2 (least-loaded spread): %+v",
				sh.Shard, sh.Sessions, snap.Shards)
		}
	}
	perShard := map[int]int{}
	for _, ss := range snap.PerSession {
		perShard[ss.Shard]++
	}
	for i := 0; i < shards; i++ {
		if perShard[i] != 2 {
			t.Fatalf("per-session snapshots count %d on shard %d, want 2", perShard[i], i)
		}
	}
	for _, c := range conns {
		c.Close()
	}

	// Phase 2: full concurrent fetches through every shard.
	var wg sync.WaitGroup
	errs := make([]error, pinned)
	for i := 0; i < pinned; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload, _, err := Fetch(context.Background(), l.Dial())
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(payload, media) {
				errs[i] = io.ErrUnexpectedEOF
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fetcher %d: %v", i, err)
		}
	}

	srv.Shutdown()
	snap = srv.Snapshot()
	checkAccounting(t, snap)
	if snap.SessionsTotal != 2*pinned {
		t.Fatalf("sessions_total = %d, want %d", snap.SessionsTotal, 2*pinned)
	}

	// The ledger holds shard by shard, and the shards sum to the aggregate.
	var sum CounterView
	for _, sh := range snap.Shards {
		if !sh.Consistent() {
			t.Fatalf("shard %d ledger: offered %d != sent %d + shed %d",
				sh.Shard, sh.BlocksOffered, sh.BlocksSent, sh.BlocksShed)
		}
		if sh.BlocksOffered == 0 {
			t.Fatalf("shard %d never offered a block: sessions did not spread", sh.Shard)
		}
		sum.BlocksEncoded += sh.BlocksEncoded
		sum.BlocksOffered += sh.BlocksOffered
		sum.BlocksSent += sh.BlocksSent
		sum.BlocksShed += sh.BlocksShed
		sum.BytesSent += sh.BytesSent
	}
	if sum.BlocksEncoded != snap.BlocksEncoded ||
		sum.BlocksOffered != snap.BlocksOffered ||
		sum.BlocksSent != snap.BlocksSent ||
		sum.BlocksShed != snap.BlocksShed ||
		sum.BytesSent != snap.BytesSent {
		t.Fatalf("shard sums %+v != aggregate %+v", sum, snap.CounterView)
	}
}

// TestFanoutDifferential serves the same media at the default queue depth and
// at QueueDepth 1 — where writeLoop's batch capacity min(writerBatch,
// QueueDepth) is 1, so every flush carries a single record — and demands
// byte-identical recovery with an exact ledger, per shard and in aggregate,
// from each: batching is an optimization of the hand-off cost, never of the
// bytes or the accounting.
func TestFanoutDifferential(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	media := testMedia(t, 3*p.SegmentSize()-41, 56)
	for _, tc := range []struct {
		name  string
		depth int
	}{{"amortized", 64}, {"queue_depth_1", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultServerConfig()
			cfg.QueueDepth = tc.depth
			cfg.Seed = 5
			cfg.WriteDeadline = 2 * time.Second
			srv, err := NewServerFromConfig(media, p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			l := startPipeServer(t, srv)
			payload, stats, err := Fetch(context.Background(), l.Dial())
			if err != nil {
				t.Fatalf("fetch at queue depth %d: %v (stats %+v)", tc.depth, err, stats)
			}
			if !bytes.Equal(payload, media) {
				t.Fatalf("payload differs at queue depth %d", tc.depth)
			}
			srv.Shutdown()
			snap := srv.Snapshot()
			checkAccounting(t, snap)
			for _, sh := range snap.Shards {
				if !sh.Consistent() {
					t.Fatalf("shard %d ledger: offered %d != sent %d + shed %d",
						sh.Shard, sh.BlocksOffered, sh.BlocksSent, sh.BlocksShed)
				}
			}
		})
	}
}

// TestSourceServerRunsOnePump: a source is one stream of records, so a
// source-backed server refuses more than one pump shard at construction —
// and still takes the default and the zero-value shard counts.
func TestSourceServerRunsOnePump(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	obj, err := rlnc.Split(testMedia(t, 2*p.SegmentSize()-3, 57), p)
	if err != nil {
		t.Fatal(err)
	}
	src := newPoolSource(t, obj, 2*p.BlockCount)
	for shards, wantErr := range map[int]bool{0: false, 1: false, 2: true, 3: true} {
		cfg := DefaultServerConfig()
		cfg.PumpShards = shards
		srv, err := NewSourceServerFromConfig(src, cfg)
		switch {
		case wantErr && (err == nil || !strings.Contains(err.Error(), "one pump")):
			t.Fatalf("PumpShards %d: err = %v, want a one-pump refusal", shards, err)
		case !wantErr && err != nil:
			t.Fatalf("PumpShards %d: %v", shards, err)
		case !wantErr && srv.Shards() != 1:
			t.Fatalf("PumpShards %d: Shards() = %d, want 1", shards, srv.Shards())
		}
	}
}

// TestChaosFetchSharded re-runs the chaos gate against a four-shard server:
// the same hostile link (corruption, resets, stalls) against the sharded
// pump, with the fetch still completing byte-identical and the per-shard
// ledger balancing exactly after teardown.
func TestChaosFetchSharded(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 4*p.SegmentSize()-13, 97)

	reg := obs.NewRegistry()
	obs.SetSink(reg)
	defer obs.SetSink(nil)

	cfg := DefaultServerConfig()
	cfg.PumpShards = 4
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
		Seed:         777,
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
	fcfg.Seed = 9
	fcfg.Metrics = reg
	f := newTestFetcher(t, dial, fcfg)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	res, err := f.Fetch(ctx)
	if err != nil {
		t.Fatalf("sharded chaos fetch failed: %v (stats %+v, faults %+v)", err, res.Stats, ctr.View())
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload not byte-identical through the chaos link with sharded pumps")
	}
	if res.Stats.Reconnects < 3 {
		t.Fatalf("reconnects = %d, want >= 3; faults %+v", res.Stats.Reconnects, ctr.View())
	}
	if res.Stats.ResumedRank == 0 {
		t.Fatal("reconnects carried no rank against the sharded server")
	}

	srv.Shutdown()
	snap := srv.Snapshot()
	checkAccounting(t, snap)
	if len(snap.Shards) != 4 {
		t.Fatalf("snapshot shards = %d, want 4", len(snap.Shards))
	}
	for _, sh := range snap.Shards {
		if !sh.Consistent() {
			t.Fatalf("shard %d ledger after chaos: offered %d != sent %d + shed %d",
				sh.Shard, sh.BlocksOffered, sh.BlocksSent, sh.BlocksShed)
		}
	}
	// The shard count is part of the scraped exposition.
	var sb bytes.Buffer
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(bytes.NewReader(sb.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.Key() == "netio_pump_shards" {
			found = true
			if s.Value != 4 {
				t.Fatalf("netio_pump_shards = %v, want 4", s.Value)
			}
		}
	}
	if !found {
		t.Fatal("netio_pump_shards missing from the exposition")
	}
}
