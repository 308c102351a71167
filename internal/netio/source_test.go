package netio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/debug"
	"testing"

	"extremenc/internal/rlnc"
)

// denseSource builds the origin's dense record source over a fresh object:
// the server's counterSource, with segments index counters.
func denseSource(t testing.TB, p rlnc.Params, segments, workers int, key uint64) *counterSource {
	t.Helper()
	obj, err := rlnc.Split(testMedia(t, segments*p.SegmentSize()-1, 7), p)
	if err != nil {
		t.Fatal(err)
	}
	penc, err := rlnc.NewParallelEncoder(workers, rlnc.FullBlock)
	if err != nil {
		t.Fatal(err)
	}
	return &counterSource{obj: obj, key: key, next: make([]uint32, len(obj.Segments)), penc: penc}
}

// encodeWith gives the dense source of srv, before it serves, a parallel
// encoder of its own with the given worker count.
func encodeWith(t testing.TB, srv *Server, workers int) *Server {
	t.Helper()
	penc, err := rlnc.NewParallelEncoder(workers, rlnc.FullBlock)
	if err != nil {
		t.Fatal(err)
	}
	srv.src.(*counterSource).penc = penc
	return srv
}

// TestDenseRecordsDifferential: a frame the origin encoded in place is the
// counter record rlnc.CounterRecord builds for its segment and index, byte for
// byte — its payload the encode of F(key, segment, index), its indices
// consecutive per segment — at every batch size and worker split.
func TestDenseRecordsDifferential(t *testing.T) {
	const key = 5
	for _, p := range []rlnc.Params{
		{BlockCount: 4, BlockSize: 32},
		{BlockCount: 32, BlockSize: 256},
		{BlockCount: 128, BlockSize: 4096},
	} {
		for _, workers := range []int{1, 3} {
			src := denseSource(t, p, 2, workers, key)
			next := [2]uint32{}
			for round, batch := range []int{1, 2, 7, 32} {
				seg := src.obj.Segments[round%2]
				recs := src.Records(round%2, batch, heapAlloc)
				if len(recs) != batch {
					t.Fatalf("%+v workers %d: %d records for a batch of %d", p, workers, len(recs), batch)
				}
				for i, rec := range recs {
					if got := int(binary.BigEndian.Uint32(rec)); got != rlnc.CounterWireSize(p) {
						t.Fatalf("length prefix %d, want %d", got, rlnc.CounterWireSize(p))
					}
					want := rlnc.CounterRecord(seg, key, next[round%2])
					next[round%2]++
					if !bytes.Equal(rec[recordLenLen:], want) {
						t.Fatalf("%+v workers %d batch %d record %d is not the counter record of its index", p, workers, batch, i)
					}
				}
			}
		}
	}
}

// TestServerSeedFixesTheStream: what a seed promises is the whole record
// sequence — the key is the seed, indices count from zero — the same on two
// servers and under any encoder worker count.
func TestServerSeedFixesTheStream(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 3*p.SegmentSize(), 12)
	newServer := func(workers int) *Server {
		cfg := DefaultServerConfig()
		cfg.Seed = 99
		srv, err := NewServerFromConfig(media, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return encodeWith(t, srv, workers)
	}
	grant := func(workers int) []byte {
		conn := startPipeServer(t, newServer(workers)).Dial()
		defer conn.Close()
		// A session's first grant, 3 × (n + margin) = 30 records, fits its
		// queue of 64: none is shed, so they are the pump's first 30.
		head := make([]byte, protoHeaderLen+tlvLen+3*(p.BlockCount+marginDense)*(recordLenLen+rlnc.CounterWireSize(p)))
		if _, err := io.ReadFull(conn, head); err != nil {
			t.Fatal(err)
		}
		return head
	}
	one := grant(1)
	if !bytes.Equal(one, grant(1)) {
		t.Fatal("two servers with one seed served different first grants")
	}
	if !bytes.Equal(one, grant(3)) {
		t.Fatal("the first grant depends on the encoder worker count")
	}
	hs, err := readHandshake(bytes.NewReader(one))
	if err != nil || !hs.counter() || hs.key != 99 {
		t.Fatalf("handshake %+v, %v: want a counter session under key 99", hs, err)
	}
}

// roundOf returns one pump round of srv's record source, run without
// serving: batch records of the next segment in turn, laid out in frames from
// the server's pool, wrapped and released, as the pump would.
func roundOf(tb testing.TB, srv *Server, batch int) func() {
	alloc := srv.alloc
	frames := make([]*frameRef, 0, batch)
	seg := 0
	return func() {
		frames = srv.wrap(frames[:0], srv.src.Records(seg, batch, alloc))
		if len(frames) != batch {
			tb.Fatalf("round produced %d frames, want %d", len(frames), batch)
		}
		for _, fr := range frames {
			fr.release()
		}
		seg = (seg + 1) % srv.Segments()
	}
}

// TestDenseSendPathDoesNotAllocate: in the steady state the origin's dense
// round — frames from the pool, coefficients written and payloads encoded —
// allocates nothing per record when the encode runs on the caller, and at
// most twice per batch through the worker dispatch.
func TestDenseSendPathDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	p := rlnc.Params{BlockCount: 32, BlockSize: 256}
	media := testMedia(t, 4*p.SegmentSize(), 13)
	// A GC in the middle of a run empties the frame pool.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		workers  int
		perBatch float64
	}{{1, 0}, {3, 2}} {
		srv, err := NewServerFromConfig(media, p, DefaultServerConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown()
		encodeWith(t, srv, tc.workers)
		batch := srv.cfg.EncodeBatch
		if got := testing.AllocsPerRun(200, roundOf(t, srv, batch)); got > tc.perBatch {
			t.Errorf("%d encoder workers: %.2f allocations per batch of %d records, want ≤ %v",
				tc.workers, got, batch, tc.perBatch)
		}
	}
}

// repairServer is a media-backed ModeSystematic server of two segments at p,
// not serving: its source is the repair schedule.
func repairServer(tb testing.TB, p rlnc.Params) *Server {
	tb.Helper()
	cfg := DefaultServerConfig()
	cfg.Mode = ModeSystematic
	srv, err := NewServerFromConfig(testMedia(tb, 2*p.SegmentSize(), 15), p, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(srv.Shutdown)
	return srv
}

// TestRepairRoundsDoNotAllocate: a systematic server's repair round — XOR
// repair and dense-tail blocks copied straight into pooled frames, the binary
// ones narrowed there to XNC2 — allocates no record body: at most once per
// batch of 8. Every record is framed in its session's encoding, XNC2 exactly
// when the block is binary.
func TestRepairRoundsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const batch = 8
	for _, p := range []rlnc.Params{{BlockCount: 32, BlockSize: 256}, {BlockCount: 128, BlockSize: 4096}} {
		srv := repairServer(t, p)
		if got := testing.AllocsPerRun(100, roundOf(t, srv, batch)); got > 1 {
			t.Errorf("%v: %.2f allocations per repair round of %d records, want ≤ 1", p, got, batch)
		}
		kinds := map[string]int{}
		for _, rec := range srv.src.Records(1, 2*batch, heapAlloc) {
			var b rlnc.CodedBlock
			if err := b.UnmarshalRecord(rec[recordLenLen:]); err != nil || b.SegmentID != 1 || b.Params() != p {
				t.Fatalf("%v: repair record: %v (segment %d, %v)", p, err, b.SegmentID, b.Params())
			}
			want := rlnc.WireSize(p)
			if b.IsBinary() {
				want = rlnc.XorWireSize(p)
			}
			if got := binary.BigEndian.Uint32(rec); int(got) != want || len(rec) != recordLenLen+want {
				t.Fatalf("%v: %d-byte record with prefix %d, want %d", p, len(rec), got, want)
			}
			kinds[string(rec[recordLenLen:recordLenLen+4])]++
		}
		if kinds["XNC1"] == 0 || kinds["XNC2"] == 0 {
			t.Fatalf("%v: repair rounds framed %v, want both XOR repair and dense tail", p, kinds)
		}
	}
}

// BenchmarkDenseRecords: one pump round per record — the origin's dense path
// (batch counter records laid out, their vectors written, encoded and sealed
// in pooled frames, then released) at the small-record and the streaming
// shape, and a systematic server's repair path (each block copied into its
// frame, narrowed to XNC2 when binary) at the same shapes.
func BenchmarkDenseRecords(b *testing.B) {
	for _, p := range []rlnc.Params{{BlockCount: 32, BlockSize: 256}, {BlockCount: 128, BlockSize: 4096}} {
		b.Run(fmt.Sprintf("origin/n=%d/k=%d", p.BlockCount, p.BlockSize), func(b *testing.B) {
			srv, err := NewServerFromConfig(testMedia(b, 4*p.SegmentSize(), 14), p, DefaultServerConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Shutdown()
			benchRounds(b, p, roundOf(b, srv, srv.cfg.EncodeBatch), srv.cfg.EncodeBatch)
		})
	}
	for _, p := range []rlnc.Params{{BlockCount: 32, BlockSize: 256}, {BlockCount: 128, BlockSize: 4096}} {
		b.Run(fmt.Sprintf("repair/n=%d/k=%d", p.BlockCount, p.BlockSize), func(b *testing.B) {
			srv := repairServer(b, p)
			benchRounds(b, p, roundOf(b, srv, srv.cfg.EncodeBatch), srv.cfg.EncodeBatch)
		})
	}
}

// benchRounds runs round, batch records at a time, until b.N records are
// done.
func benchRounds(b *testing.B, p rlnc.Params, round func(), batch int) {
	b.SetBytes(int64(p.BlockSize))
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += batch {
		round()
	}
}
