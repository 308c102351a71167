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
				recs := heapFrames(batch, p)
				if k := src.Records(round%2, recs); k != batch {
					t.Fatalf("%+v workers %d: %d records for a batch of %d", p, workers, k, batch)
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

// heapFrames is count frames of the length a server of p hands its source.
func heapFrames(count int, p rlnc.Params) [][]byte {
	frames := make([][]byte, count)
	for i := range frames {
		frames[i] = make([]byte, frameSize(p))
	}
	return frames
}

// roundOf returns one pump round of srv's record source, run without
// serving: batch frames from the server's pool filled with records of the next
// segment in turn (Server.fill), then released, as the pump would.
func roundOf(tb testing.TB, srv *Server, batch int) func() {
	frames := make([]*frameRef, batch)
	seg := 0
	return func() {
		if k := srv.fill(seg, frames); k != batch {
			tb.Fatalf("round filled %d frames, want %d", k, batch)
		}
		for _, fr := range frames {
			fr.release()
		}
		seg = (seg + 1) % srv.Segments()
	}
}

// fillSource is a poolSource that fills only as many of the frames it is
// handed as fill allows on its call-th call, and keeps a copy of every record
// it laid; a foreign one hands back a copy of its first record in place of the
// frame it laid it in.
type fillSource struct {
	*poolSource
	fill    func(call, frames int) int
	foreign bool
	calls   int
	laid    [][]byte
}

func (s *fillSource) Records(seg int, frames [][]byte) int {
	k := s.poolSource.Records(seg, frames[:s.fill(s.calls, len(frames))])
	s.calls++
	for _, rec := range frames[:k] {
		s.laid = append(s.laid, bytes.Clone(rec))
	}
	if s.foreign && k > 0 {
		frames[0] = bytes.Clone(frames[0])
	}
	return k
}

// TestRecordSourceContract: the pump keeps the frames its source filled and
// puts the rest back in the pool, whether the source fills all, some or none
// of them — a round leaves each filled frame held once, holding its record,
// and every other one released — and a session reads exactly the records the
// source laid, byte for byte and in order, under an exact ledger. A source
// that hands back a record outside the frame it was handed panics the round.
func TestRecordSourceContract(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	obj, err := rlnc.Split(testMedia(t, 2*p.SegmentSize()-5, 24), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fill func(call, frames int) int
	}{
		{"all", func(_, n int) int { return n }},
		{"some", func(_, n int) int { return (n + 1) / 2 }},
		// Dry on every even call, so the pump naps between full rounds.
		{"none", func(call, n int) int { return call % 2 * n }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &fillSource{poolSource: newPoolSource(t, obj, 2*p.BlockCount), fill: tc.fill}
			srv, err := NewSourceServerFromConfig(src, DefaultServerConfig())
			if err != nil {
				t.Fatal(err)
			}
			frames := make([]*frameRef, srv.cfg.EncodeBatch)
			k := srv.fill(0, frames)
			if want := tc.fill(0, len(frames)); k != want || len(src.laid) != k {
				t.Fatalf("a round filled %d frames, the source laid %d, want %d", k, len(src.laid), want)
			}
			for i, fr := range frames {
				if held := fr.refs.Load(); (i < k) != (held == 1) || held > 1 {
					t.Fatalf("frame %d of a round that filled %d holds %d references", i, k, held)
				}
				if i < k && !bytes.Equal(fr.buf, src.laid[i]) {
					t.Fatalf("frame %d is not the record the source laid in it", i)
				}
			}
			for _, fr := range frames[:k] {
				fr.release()
			}

			src.laid = nil
			conn := startPipeServer(t, srv).Dial()
			if _, err := readHandshake(conn); err != nil {
				t.Fatal(err)
			}
			var wire [][]byte
			for range len(obj.Segments) * (p.BlockCount + marginDense) {
				head := make([]byte, recordLenLen)
				if _, err := io.ReadFull(conn, head); err != nil {
					t.Fatal(err)
				}
				rec := append(head, make([]byte, binary.BigEndian.Uint32(head))...)
				if _, err := io.ReadFull(conn, rec[recordLenLen:]); err != nil {
					t.Fatal(err)
				}
				wire = append(wire, rec)
			}
			conn.Close()
			awaitSessions(t, srv, 0)
			srv.Shutdown()
			snap := srv.Snapshot()
			checkAccounting(t, snap)
			if snap.BlocksEncoded != int64(len(src.laid)) || snap.BlocksSent != int64(len(wire)) || snap.BlocksShed != 0 {
				t.Fatalf("ledger %+v: want %d encoded, %d sent, none shed", snap.CounterView, len(src.laid), len(wire))
			}
			for i, rec := range wire {
				if !bytes.Equal(rec, src.laid[i]) {
					t.Fatalf("record %d on the wire is not record %d the source laid", i, i)
				}
			}
		})
	}
	t.Run("foreign", func(t *testing.T) {
		src := &fillSource{poolSource: newPoolSource(t, obj, p.BlockCount), fill: func(_, n int) int { return n }, foreign: true}
		srv, err := NewSourceServerFromConfig(src, DefaultServerConfig())
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if recover() == nil {
				t.Fatal("a record outside its frame did not panic the round")
			}
		}()
		srv.fill(0, make([]*frameRef, srv.cfg.EncodeBatch))
	})
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
		recs := heapFrames(2*batch, p)
		for _, rec := range recs[:srv.src.Records(1, recs)] {
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
