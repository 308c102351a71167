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

// TestDenseSendPathDoesNotAllocate: in the steady state the origin's dense
// round — frames from the pool, coefficients written and payloads encoded — allocates nothing per record when the encode runs
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
		srv, err := NewServerFromConfig(media, p, DefaultServerConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Shutdown()
		encodeWith(t, srv, tc.workers)
		alloc := srv.alloc // no Serve: the pump is not running
		batch := srv.cfg.EncodeBatch
		frames := make([]*frameRef, 0, batch)
		seg := 0
		round := func() {
			frames = srv.wrap(frames[:0], srv.src.Records(seg, batch, alloc))
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
// counter records laid out, their vectors written, encoded and sealed in
// pooled frames, then released — per record, at the small-record and the
// streaming shape.
func BenchmarkDenseRecords(b *testing.B) {
	for _, p := range []rlnc.Params{{BlockCount: 32, BlockSize: 256}, {BlockCount: 128, BlockSize: 4096}} {
		b.Run(fmt.Sprintf("origin/n=%d/k=%d", p.BlockCount, p.BlockSize), func(b *testing.B) {
			srv, err := NewServerFromConfig(testMedia(b, 4*p.SegmentSize(), 14), p, DefaultServerConfig())
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Shutdown()
			alloc := srv.alloc
			batch := srv.cfg.EncodeBatch
			frames := make([]*frameRef, 0, batch)
			b.SetBytes(int64(p.BlockSize))
			b.ReportAllocs()
			b.ResetTimer()
			for done, seg := 0, 0; done < b.N; done, seg = done+len(frames), (seg+1)%srv.Segments() {
				frames = srv.wrap(frames[:0], srv.src.Records(seg, batch, alloc))
				for _, fr := range frames {
					fr.release()
				}
			}
		})
	}
}
