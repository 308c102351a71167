package netio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"extremenc/internal/matrix"
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
	return newCounterSource(obj, key, penc)
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
// consecutive per segment from n, past the sweep's — at every batch size and
// worker split.
func TestDenseRecordsDifferential(t *testing.T) {
	const key = 5
	for _, p := range []rlnc.Params{
		{BlockCount: 4, BlockSize: 32},
		{BlockCount: 32, BlockSize: 256},
		{BlockCount: 128, BlockSize: 4096},
	} {
		for _, workers := range []int{1, 3} {
			src := denseSource(t, p, 2, workers, key)
			next := [2]uint32{uint32(p.BlockCount), uint32(p.BlockCount)}
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
// sequence — the key is the seed, the sweep is indices 0…n−1 and repair counts
// from n — the same on two servers and under any encoder worker count.
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
	recLen := recordLenLen + rlnc.CounterWireSize(p)
	sweepLen := protoHeaderLen + tlvLen + 3*p.BlockCount*recLen
	stream := func(workers int) []byte {
		conn := startPipeServer(t, newServer(workers)).Dial()
		defer conn.Close()
		// The sweep, 3 × n records; then, asked for every segment whole, a
		// first repair grant, 3 × (n + margin) = 30 records, which fits the
		// session's queue of 64: none is shed, so they are the pump's first 30.
		head := make([]byte, sweepLen+3*(p.BlockCount+marginDense)*recLen)
		if _, err := io.ReadFull(conn, head[:sweepLen]); err != nil {
			t.Fatal(err)
		}
		n := uint32(p.BlockCount)
		if _, err := conn.Write(appendNeed(nil, []uint32{n, n, n})); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, head[sweepLen:]); err != nil {
			t.Fatal(err)
		}
		return head
	}
	one := stream(1)
	if !bytes.Equal(one, stream(1)) {
		t.Fatal("two servers with one seed served different streams")
	}
	if !bytes.Equal(one, stream(3)) {
		t.Fatal("the stream depends on the encoder worker count")
	}
	hs, err := readHandshake(bytes.NewReader(one))
	if err != nil || !hs.counter() || hs.key != 99 {
		t.Fatalf("handshake %+v, %v: want a counter session under key 99", hs, err)
	}
	for i, rec := 0, one[protoHeaderLen+tlvLen:]; len(rec) > 0; i, rec = i+1, rec[recLen:] {
		index := binary.BigEndian.Uint32(rec[recordLenLen+16:])
		if swept := i < 3*p.BlockCount; swept != (index < uint32(p.BlockCount)) {
			t.Fatalf("record %d carries index %d: the sweep is 0…n−1, repair from n", i, index)
		}
	}
}

// counterBasisRank is the rank of the counter vectors 0…n−1 of segment segID
// under key: the basis a dense origin sweeps that segment with.
func counterBasisRank(t testing.TB, key uint64, segID uint32, n int) int {
	t.Helper()
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = make([]byte, n)
		rlnc.CounterCoeffs(rows[i], key, segID, uint32(i))
	}
	m, err := matrix.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	return m.Rank()
}

// TestDenseTableOncePerServer: a dense origin encodes each record of its sweep
// once over its life, however many sessions read it — concurrent ones racing
// for the table's entries, later ones finding them built — and its pump
// encodes nothing for a clean session: each reads exactly one sweep, n ×
// segments records, asks for nothing, and no record is shed.
func TestDenseTableOncePerServer(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	const segments, concurrent, serial = 3, 3, 2
	media := testMedia(t, segments*p.SegmentSize()-9, 83)
	cfg := DefaultServerConfig()
	cfg.Seed = 3
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range srv.src.(*counterSource).obj.Segments {
		if r := counterBasisRank(t, uint64(cfg.Seed), seg.ID(), p.BlockCount); r != p.BlockCount {
			t.Fatalf("segment %d: the key's basis has rank %d, so a clean session would ask", seg.ID(), r)
		}
	}
	l := startPipeServer(t, srv)
	sweep := segments * p.BlockCount
	fetch := func() error {
		payload, stats, err := Fetch(context.Background(), l.Dial())
		if err == nil && !bytes.Equal(payload, media) {
			err = errors.New("payload differs")
		}
		if err == nil && stats.Records != sweep {
			err = fmt.Errorf("read %d records, want one sweep of %d", stats.Records, sweep)
		}
		return err
	}
	errs := make([]error, concurrent+serial)
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fetch()
		}()
	}
	wg.Wait()
	for i := concurrent; i < len(errs); i++ {
		errs[i] = fetch()
	}
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	awaitSessions(t, srv, 0)
	srv.Shutdown()
	snap := srv.Snapshot()
	checkAccounting(t, snap)
	if snap.BlocksEncoded != int64(sweep) || snap.BlocksSent != int64(len(errs)*sweep) || snap.BlocksShed != 0 {
		t.Fatalf("encoded %d, sent %d, shed %d: want %d (the table, once), %d and 0",
			snap.BlocksEncoded, snap.BlocksSent, snap.BlocksShed, sweep, len(errs)*sweep)
	}
	if srv.needRecords.Load() != 0 {
		t.Fatalf("%d need records from clean sessions", srv.needRecords.Load())
	}
}

// indexTap is a dense origin's source that notes the segment and index of
// every record its pump frames.
type indexTap struct {
	*counterSource
	segs, indices []uint32
}

func (x *indexTap) Records(seg int, frames [][]byte) int {
	k := x.counterSource.Records(seg, frames)
	for _, rec := range frames[:k] {
		x.segs = append(x.segs, binary.BigEndian.Uint32(rec[recordLenLen+4:]))
		x.indices = append(x.indices, binary.BigEndian.Uint32(rec[recordLenLen+16:]))
	}
	return k
}

// TestDenseDeficientBasisRepairs: under a key whose counter vectors 0…n−1 of
// some segment fall short of full rank, a session's sweep leaves that segment
// short. The fetch asks once, for the short segments alone, is repaired from
// index n on — no swept index is framed twice — and finishes byte-identical.
func TestDenseDeficientBasisRepairs(t *testing.T) {
	p := rlnc.Params{BlockCount: 4, BlockSize: 64}
	media := testMedia(t, 2*p.SegmentSize(), 84)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	var key uint64
	var short []uint32 // the segments the key's basis leaves short
	for key = 1; len(short) == 0; key++ {
		if key > 1e5 {
			t.Fatal("no key below 1e5 gives a rank-deficient basis")
		}
		for _, seg := range obj.Segments {
			if counterBasisRank(t, key, seg.ID(), p.BlockCount) < p.BlockCount {
				short = append(short, seg.ID())
			}
		}
	}
	key--
	cfg := DefaultServerConfig()
	cfg.Seed = int64(key)
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tap := &indexTap{counterSource: srv.src.(*counterSource)}
	srv.src = tap
	l := startPipeServer(t, srv)
	payload, stats, err := Fetch(context.Background(), l.Dial())
	if err != nil || !bytes.Equal(payload, media) {
		t.Fatalf("fetch under key %d: %v", key, err)
	}
	awaitSessions(t, srv, 0)
	srv.Shutdown() // the pump has stopped: the tap is ours to read
	checkAccounting(t, srv.Snapshot())
	if asks := srv.needRecords.Load(); asks != 1 {
		t.Fatalf("%d need records, want 1 (segments %v short)", asks, short)
	}
	if len(tap.indices) == 0 {
		t.Fatal("the pump framed no repair")
	}
	framed := map[[2]uint32]bool{}
	for i, index := range tap.indices {
		seg := tap.segs[i]
		if index < uint32(p.BlockCount) || !slices.Contains(short, seg) || framed[[2]uint32{seg, index}] {
			t.Fatalf("repair record %d of segment %d, index %d: want a short segment %v, an index ≥ %d, never twice",
				i, seg, index, short, p.BlockCount)
		}
		framed[[2]uint32{seg, index}] = true
	}
	t.Logf("key %d leaves segments %v short: %d records read, %d repair records framed", key, short, stats.Records, len(tap.indices))
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
		srv.fill(seg, frames)
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

// TestRecordSourceContract: a source fills every frame the pump hands it. A
// round that it filled leaves each frame held once, holding its record, and a
// session that asks past its sweep reads exactly the records the source laid,
// byte for byte and in order, under an exact ledger. A source that fills some
// or none of them, or hands back a record outside the frame it was handed,
// panics the round.
func TestRecordSourceContract(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	obj, err := rlnc.Split(testMedia(t, 2*p.SegmentSize()-5, 24), p)
	if err != nil {
		t.Fatal(err)
	}
	t.Run("all", func(t *testing.T) {
		src := &fillSource{poolSource: newPoolSource(t, obj, 2*p.BlockCount), fill: func(_, n int) int { return n }}
		srv, err := NewSourceServerFromConfig(src, DefaultServerConfig())
		if err != nil {
			t.Fatal(err)
		}
		frames := make([]*frameRef, srv.batch)
		srv.fill(0, frames)
		if len(src.laid) != len(frames) {
			t.Fatalf("a round of %d frames, the source laid %d", len(frames), len(src.laid))
		}
		for i, fr := range frames {
			if held := fr.refs.Load(); held != 1 {
				t.Fatalf("frame %d of a filled round holds %d references", i, held)
			}
			if !bytes.Equal(fr.buf, src.laid[i]) {
				t.Fatalf("frame %d is not the record the source laid in it", i)
			}
			fr.release()
		}

		src.laid = nil
		conn := startPipeServer(t, srv).Dial()
		if _, err := readHandshake(conn); err != nil {
			t.Fatal(err)
		}
		readRecord := func() []byte {
			head := make([]byte, recordLenLen)
			if _, err := io.ReadFull(conn, head); err != nil {
				t.Fatal(err)
			}
			rec := append(head, make([]byte, binary.BigEndian.Uint32(head))...)
			if _, err := io.ReadFull(conn, rec[recordLenLen:]); err != nil {
				t.Fatal(err)
			}
			return rec
		}
		for range len(obj.Segments) * p.BlockCount {
			readRecord()
		}
		n := uint32(p.BlockCount)
		if _, err := conn.Write(appendNeed(nil, []uint32{n, n})); err != nil {
			t.Fatal(err)
		}
		var wire [][]byte
		for range len(obj.Segments) * (p.BlockCount + marginDense) {
			wire = append(wire, readRecord())
		}
		conn.Close()
		awaitSessions(t, srv, 0)
		srv.Shutdown()
		snap := srv.Snapshot()
		checkAccounting(t, snap)
		if sweep := int64(len(obj.Segments) * p.BlockCount); snap.BlocksEncoded != int64(len(src.laid)) || snap.BlocksSent != sweep+int64(len(wire)) || snap.BlocksShed != 0 {
			t.Fatalf("ledger %+v: want %d encoded, %d sent past the sweep, none shed", snap.CounterView, len(src.laid), len(wire))
		}
		for i, rec := range wire {
			if !bytes.Equal(rec, src.laid[i]) {
				t.Fatalf("record %d on the wire is not record %d the source laid", i, i)
			}
		}
	})
	for _, tc := range []struct {
		name    string
		fill    func(call, frames int) int
		foreign bool
	}{
		{"some", func(_, n int) int { return (n + 1) / 2 }, false},
		{"none", func(int, int) int { return 0 }, false},
		{"foreign", func(_, n int) int { return n }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := &fillSource{poolSource: newPoolSource(t, obj, p.BlockCount), fill: tc.fill, foreign: tc.foreign}
			srv, err := NewSourceServerFromConfig(src, DefaultServerConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if recover() == nil {
					t.Fatal("the round did not panic")
				}
			}()
			srv.fill(0, make([]*frameRef, srv.batch))
		})
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
		batch := srv.batch
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
			benchRounds(b, p, roundOf(b, srv, srv.batch), srv.batch)
		})
	}
	for _, p := range []rlnc.Params{{BlockCount: 32, BlockSize: 256}, {BlockCount: 128, BlockSize: 4096}} {
		b.Run(fmt.Sprintf("repair/n=%d/k=%d", p.BlockCount, p.BlockSize), func(b *testing.B) {
			srv := repairServer(b, p)
			benchRounds(b, p, roundOf(b, srv, srv.batch), srv.batch)
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
