package netio

import (
	"bytes"
	"fmt"
	"io"
	"runtime/debug"
	"testing"

	"extremenc/internal/rlnc"
)

// denseSource builds the origin's dense record source over a fresh object.
func denseSource(t testing.TB, p rlnc.Params, segments, workers int, seed int64) *objectSource {
	t.Helper()
	obj, err := rlnc.Split(testMedia(t, segments*p.SegmentSize()-1, 7), p)
	if err != nil {
		t.Fatal(err)
	}
	penc, err := rlnc.NewParallelEncoder(workers, rlnc.FullBlock)
	if err != nil {
		t.Fatal(err)
	}
	return newObjectSource(obj, ModeDense, penc, seed)
}

// TestDenseRecordsDifferential: a frame the origin encoded in place is the
// frame the CodedBlock route would have built — it parses, its payload is the
// reference encode of its own coefficients, and marshaling the parsed block
// again reproduces it byte for byte — at every batch size and worker split.
func TestDenseRecordsDifferential(t *testing.T) {
	for _, p := range []rlnc.Params{
		{BlockCount: 4, BlockSize: 32},
		{BlockCount: 32, BlockSize: 256},
		{BlockCount: 128, BlockSize: 4096},
	} {
		for _, workers := range []int{1, 3} {
			src := denseSource(t, p, 2, workers, 5)
			want := make([]byte, p.BlockSize)
			for round, batch := range []int{1, 2, 7, 32} {
				seg := src.obj.Segments[round%2]
				recs := src.Records(round%2, batch, heapAlloc)
				if len(recs) != batch {
					t.Fatalf("%+v workers %d: %d records for a batch of %d", p, workers, len(recs), batch)
				}
				for i, rec := range recs {
					var b rlnc.CodedBlock
					if err := b.UnmarshalBinary(rec[recordLenLen:]); err != nil {
						t.Fatalf("%+v workers %d batch %d record %d does not parse: %v", p, workers, batch, i, err)
					}
					if b.SegmentID != seg.ID() || bytes.IndexByte(b.Coeffs, 0) >= 0 {
						t.Fatalf("record of segment %d, coefficients % x", b.SegmentID, b.Coeffs)
					}
					rlnc.EncodeInto(want, seg, b.Coeffs)
					if !bytes.Equal(b.Payload, want) {
						t.Fatalf("%+v workers %d batch %d record %d: payload is not the encode of its coefficients", p, workers, batch, i)
					}
					again, err := FrameRecord(&b, ModeDense)
					if err != nil || !bytes.Equal(again, rec) {
						t.Fatalf("%+v workers %d batch %d record %d: FrameRecord of the parsed block differs (%v)", p, workers, batch, i, err)
					}
				}
			}
		}
	}
}

// TestServerSeedFixesTheStream: the coefficient stream belongs to the source
// and is seeded once, so what a seed promises is the whole record sequence —
// the same on two servers and under any encoder worker count — and each shard
// of a sharded server draws from a lane of its own.
func TestServerSeedFixesTheStream(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 3*p.SegmentSize(), 12)
	first64 := func(workers int) []byte {
		cfg := DefaultServerConfig()
		cfg.Seed = 99
		cfg.EncoderWorkers = workers
		srv, err := NewServerFromConfig(media, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		conn := startPipeServer(t, srv).Dial()
		defer conn.Close()
		// The first QueueDepth (64) records offered to a session all fit its
		// queue: none is shed, so they are the pump's first 64.
		head := make([]byte, protoHeaderLen+64*(recordLenLen+rlnc.WireSize(p)))
		if _, err := io.ReadFull(conn, head); err != nil {
			t.Fatal(err)
		}
		return head
	}
	one := first64(1)
	if !bytes.Equal(one, first64(1)) {
		t.Fatal("two servers with one seed served different first 64 records")
	}
	if !bytes.Equal(one, first64(3)) {
		t.Fatal("the first 64 records depend on the encoder worker count")
	}

	lane0 := denseSource(t, p, 1, 1, shardSeed(99, 0)).Records(0, 8, heapAlloc)
	lane1 := denseSource(t, p, 1, 1, shardSeed(99, 1)).Records(0, 8, heapAlloc)
	for i := range lane0 {
		if bytes.Equal(lane0[i], lane1[i]) {
			t.Fatalf("shard lanes 0 and 1 drew the same record %d", i)
		}
	}
}

// TestDenseSendPathDoesNotAllocate: in the steady state the origin's dense
// round — frames from the pool, coefficients drawn and payloads encoded in
// them, wrapped, released — allocates nothing per record when the encode runs
// on the caller, and at most twice per batch through the worker dispatch.
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
		cfg := DefaultServerConfig()
		cfg.EncoderWorkers = tc.workers
		srv, err := NewServerFromConfig(media, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown()
		sh := srv.shards[0] // no Serve: the pump is not running
		alloc := sh.alloc
		batch := srv.cfg.EncodeBatch
		frames := make([]*frameRef, 0, batch)
		seg := 0
		round := func() {
			frames = sh.wrap(frames[:0], sh.src.Records(seg, batch, alloc))
			if len(frames) != batch {
				t.Fatalf("round produced %d frames, want %d", len(frames), batch)
			}
			for _, fr := range frames {
				fr.release()
			}
			seg = (seg + 1) % srv.Segments()
		}
		if got := testing.AllocsPerRun(200, round); got > tc.perBatch {
			t.Errorf("%d encoder workers: %.2f allocations per batch of %d records, want ≤ %v",
				tc.workers, got, batch, tc.perBatch)
		}
	}
}

// BenchmarkDenseRecords: one pump round of the origin's dense path — batch
// records laid out, drawn, encoded and sealed in pooled frames, then released
// — per record, at the small-record and the streaming shape.
func BenchmarkDenseRecords(b *testing.B) {
	for _, p := range []rlnc.Params{{BlockCount: 32, BlockSize: 256}, {BlockCount: 128, BlockSize: 4096}} {
		b.Run(fmt.Sprintf("origin/n=%d/k=%d", p.BlockCount, p.BlockSize), func(b *testing.B) {
			srv, err := NewServerFromConfig(testMedia(b, 4*p.SegmentSize(), 14), p, DefaultServerConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Shutdown()
			sh := srv.shards[0]
			alloc := sh.alloc
			batch := srv.cfg.EncodeBatch
			frames := make([]*frameRef, 0, batch)
			b.SetBytes(int64(p.BlockSize))
			b.ReportAllocs()
			b.ResetTimer()
			for done, seg := 0, 0; done < b.N; done, seg = done+len(frames), (seg+1)%srv.Segments() {
				frames = sh.wrap(frames[:0], sh.src.Records(seg, batch, alloc))
				for _, fr := range frames {
					fr.release()
				}
			}
		})
	}
}
