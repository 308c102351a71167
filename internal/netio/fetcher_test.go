package netio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/gf256"
	"extremenc/internal/rlnc"
)

// flakyServer accepts connections from l and serves the object, but hangs
// up every session after recordsPerSession records — a server that keeps
// crashing mid-stream. Session i's encoders are seeded with base+i so every
// session pushes fresh (innovative) combinations.
func flakyServer(t *testing.T, l *pipeListener, media []byte, p rlnc.Params, recordsPerSession int, inject func(session int, conn net.Conn) bool) {
	t.Helper()
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for session := 0; ; session++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			// It pushes its records regardless, and takes the fetcher's need
			// records only so that writing one never blocks the pipe.
			go io.Copy(io.Discard, conn) //nolint:errcheck // ends with the session
			h := SessionInfo{Params: p, Segments: len(obj.Segments), Length: int64(obj.Length)}
			if _, err := conn.Write(appendSessionHeader(nil, handshake{hdr: h})); err != nil {
				conn.Close()
				continue
			}
			if inject != nil && inject(session, conn) {
				conn.Close()
				continue
			}
			rng := rand.New(rand.NewSource(int64(session) + 1000))
			encoders := make([]*rlnc.Encoder, len(obj.Segments))
			for i, seg := range obj.Segments {
				encoders[i] = rlnc.NewEncoder(seg, rng)
			}
			for r := 0; r < recordsPerSession; r++ {
				rec, err := FrameRecord(encoders[r%len(encoders)].NextBlock(), ModeDense)
				if err != nil {
					break
				}
				if _, err := conn.Write(rec); err != nil {
					break
				}
			}
			conn.Close()
		}
	}()
}

// TestFetcherSurvivesServerRestarts: a server that dies every few records
// must still be fully drained, with rank carried across every reconnect.
func TestFetcherSurvivesServerRestarts(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 3*p.SegmentSize()-37, 21)
	l := newPipeListener()
	defer l.Close()
	flakyServer(t, l, media, p, 7, nil) // 24 innovative blocks needed, 7 records per session

	type rankSnap struct {
		reconnect int
		total     int
	}
	var snaps []rankSnap
	prev := map[uint32]int{}
	var f *Fetcher
	fcfg := DefaultFetcherConfig()
	fcfg.BackoffBase = time.Millisecond
	fcfg.BackoffMax = 4 * time.Millisecond
	fcfg.Seed = 1
	fcfg.SessionHook = func(SessionInfo) {
		reconnect := f.Stats().Reconnects
		if reconnect == 0 {
			return
		}
		total := 0
		for id, r := range f.Ranks() {
			if r < prev[id] {
				panic(fmt.Sprintf("segment %d rank fell %d -> %d across reconnect", id, prev[id], r))
			}
			prev[id] = r
			total += r
		}
		snaps = append(snaps, rankSnap{reconnect, total})
	}
	f = newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := f.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload differs after restarts")
	}
	if res.Stats.Reconnects < 3 {
		t.Fatalf("reconnects = %d, want >= 3 (server dies every 7 records)", res.Stats.Reconnects)
	}
	if res.Stats.ResumedRank == 0 {
		t.Fatal("no rank was carried across reconnects")
	}
	if len(snaps) != res.Stats.Reconnects {
		t.Fatalf("hook fired %d times, reconnects = %d", len(snaps), res.Stats.Reconnects)
	}
	// Rank carried into later reconnects must be positive: nothing restarts
	// from scratch.
	if last := snaps[len(snaps)-1]; last.total == 0 {
		t.Fatal("final reconnect carried zero rank")
	}
}

// recoderBank is a relay's upstream sink in miniature: one rlnc.Recoder per
// segment, built at the segment's first record, innovative when Add raised
// its rank.
type recoderBank map[uint32]*rlnc.Recoder

func (b recoderBank) Absorb(blk *rlnc.CodedBlock, _ []byte) (bool, error) {
	rec := b[blk.SegmentID]
	if rec == nil {
		var err error
		if rec, err = rlnc.NewRecoder(blk.Params()); err != nil {
			return false, err
		}
		b[blk.SegmentID] = rec
	}
	before := rec.Rank()
	err := rec.Add(blk)
	return rec.Rank() > before, err
}

func (b recoderBank) Rank(seg uint32) int {
	if rec := b[seg]; rec != nil {
		return rec.Rank()
	}
	return 0
}

// TestSinkFetch: a fetch into a recoder bank runs the leaf's session loop —
// here against a server that hangs up every 7 records — keeps the bank's rank
// across every reconnect, and is done when every segment's rank in the bank
// is full. It builds nothing a leaf would: no decoder, no segment, no payload,
// and it has no state to save.
func TestSinkFetch(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 3*p.SegmentSize()-37, 21)
	l := newPipeListener()
	defer l.Close()
	flakyServer(t, l, media, p, 7, nil)

	bank := recoderBank{}
	prev := map[uint32]int{}
	var f *Fetcher
	fcfg := DefaultFetcherConfig()
	fcfg.BackoffBase, fcfg.BackoffMax = time.Millisecond, 4*time.Millisecond
	fcfg.Seed = 1
	fcfg.Sink = bank
	fcfg.SessionHook = func(SessionInfo) {
		for id, r := range f.Ranks() {
			if r < prev[id] {
				panic(fmt.Sprintf("segment %d rank fell %d -> %d across reconnect", id, prev[id], r))
			}
			prev[id] = r
		}
	}
	f = newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := f.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Payload != nil || len(res.Segments) != 0 || f.leaf != nil {
		t.Fatalf("a sink fetch built a %d-byte payload, %d segments or decoders (%v)", len(res.Payload), len(res.Segments), f.leaf)
	}
	for seg := range uint32(3) {
		if bank.Rank(seg) != p.BlockCount || res.Ranks[seg] != p.BlockCount {
			t.Fatalf("segment %d: bank rank %d, result rank %d, want %d", seg, bank.Rank(seg), res.Ranks[seg], p.BlockCount)
		}
	}
	if res.Stats.Reconnects < 3 || res.Stats.ResumedRank == 0 || len(prev) == 0 {
		t.Fatalf("reconnects = %d carrying rank %d, want >= 3 carrying some", res.Stats.Reconnects, res.Stats.ResumedRank)
	}
	if _, err := f.State(); !errors.Is(err, errSinkState) {
		t.Fatalf("State of a sink fetch: %v, want %v", err, errSinkState)
	}
}

// TestRecordTapSeesAbsorbedRecord: the tap runs once the record in hand has
// been absorbed, so the ranks it reads count that record — a segment's first
// record shows it at rank 1, and the record that completes the fetch shows
// full rank. A relay's fill wait reads rank from a tap and relies on this.
func TestRecordTapSeesAbsorbedRecord(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 3*p.SegmentSize()-5, 26)
	full := 3 * p.BlockCount
	for _, sink := range []Sink{nil, recoderBank{}} {
		l := newPipeListener()
		defer l.Close()
		flakyServer(t, l, media, p, 4*full, nil)
		var f *Fetcher
		seen, last := map[uint32]bool{}, 0
		fcfg := DefaultFetcherConfig()
		fcfg.MaxAttempts = 1
		fcfg.Sink = sink
		fcfg.RecordTap = func(b *rlnc.CodedBlock) {
			ranks := f.Ranks()
			if !seen[b.SegmentID] && ranks[b.SegmentID] != 1 {
				t.Errorf("sink %T: the tap of segment %d's first record reads rank %d, want 1", sink, b.SegmentID, ranks[b.SegmentID])
			}
			seen[b.SegmentID] = true
			last = 0
			for _, r := range ranks {
				last += r
			}
		}
		f = newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
		if _, err := f.Fetch(context.Background()); err != nil {
			t.Fatalf("sink %T: %v", sink, err)
		}
		if last != full {
			t.Fatalf("sink %T: the last record's tap reads total rank %d, want %d", sink, last, full)
		}
	}
}

// TestFetcherBudgetReturnsPartialProgress: exhausting the attempt budget
// must surface the decoded-so-far segments and per-segment ranks alongside
// the error, not discard them.
func TestFetcherBudgetReturnsPartialProgress(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, 2*p.SegmentSize(), 22)
	l := newPipeListener()
	defer l.Close()
	// Every session serves only segment 0: segment 1 can never finish.
	flakyServer(t, l, media, p, 0, func(session int, conn net.Conn) bool {
		obj, _ := rlnc.Split(media, p)
		enc := rlnc.NewEncoder(obj.Segments[0], rand.New(rand.NewSource(int64(session))))
		for i := 0; i < p.BlockCount+2; i++ {
			rec, _ := FrameRecord(enc.NextBlock(), ModeDense)
			if _, err := conn.Write(rec); err != nil {
				return true
			}
		}
		return true
	})

	fcfg := DefaultFetcherConfig()
	fcfg.MaxAttempts = 3
	fcfg.BackoffBase = time.Millisecond
	fcfg.BackoffMax = time.Millisecond
	f := newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
	res, err := f.Fetch(context.Background())
	if !errors.Is(err, ErrFetchBudget) {
		t.Fatalf("err = %v, want ErrFetchBudget", err)
	}
	if res == nil || res.Stats == nil {
		t.Fatal("no result/stats returned with the error")
	}
	if res.Payload != nil {
		t.Fatal("partial fetch returned a payload")
	}
	if res.Stats.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Stats.Attempts)
	}
	if res.Ranks[0] != p.BlockCount {
		t.Fatalf("segment 0 rank = %d, want full %d", res.Ranks[0], p.BlockCount)
	}
	seg, ok := res.Segments[0]
	if !ok {
		t.Fatal("completed segment 0 missing from partial result")
	}
	if !bytes.Equal(seg.Data(), media[:p.SegmentSize()]) {
		t.Fatal("partial result segment 0 payload differs")
	}
}

// TestFetcherResumeState: a failed fetch's serialized state seeds a new
// Fetcher — in principle in a new process — which finishes without
// re-earning the saved rank.
func TestFetcherResumeState(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	media := testMedia(t, p.SegmentSize(), 23)
	l := newPipeListener()
	defer l.Close()
	// Sessions deliver 5 records: never enough for rank 8 in one attempt.
	flakyServer(t, l, media, p, 5, nil)

	fcfg := DefaultFetcherConfig()
	fcfg.MaxAttempts = 1
	first := newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
	res, err := first.Fetch(context.Background())
	if err == nil {
		t.Fatal("single truncated session unexpectedly completed")
	}
	if got := res.Ranks[0]; got != 5 {
		t.Fatalf("rank after one 5-record session = %d, want 5", got)
	}
	state, err := first.State()
	if err != nil {
		t.Fatal(err)
	}

	fcfg = DefaultFetcherConfig()
	fcfg.ResumeState = state
	fcfg.BackoffBase = time.Millisecond
	fcfg.BackoffMax = time.Millisecond
	second := newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
	res2, err := second.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res2.Payload, media) {
		t.Fatal("resumed fetch payload differs")
	}
	// 3 missing ranks, 5 records per session: one session must do it, and
	// the resumed fetch must not have re-downloaded the first 5 ranks.
	if res2.Stats.Records > 5 {
		t.Fatalf("resumed fetch consumed %d records, want <= 5 (saved rank was re-earned?)", res2.Stats.Records)
	}

	// Damaged state is rejected up front, with the error.
	bad := append([]byte(nil), state...)
	bad[len(bad)/2] ^= 1
	fcfg = DefaultFetcherConfig()
	fcfg.ResumeState = bad
	res3, err := newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg).Fetch(context.Background())
	if !errors.Is(err, ErrBadResumeState) {
		t.Fatalf("err = %v, want ErrBadResumeState", err)
	}
	if res3 == nil || res3.Stats == nil {
		t.Fatal("no stats with resume-state error")
	}

	// A blob holding one complete and one partial segment. The resumed fetch
	// allocates its object buffer at the first handshake, and the complete
	// segment moves into its window there, in the one copy it costs: it is
	// whole by the time the session hook runs, no record is offered to it
	// afterwards, and the result's segment is a view of the payload.
	media2 := testMedia(t, 2*p.SegmentSize()-9, 25)
	obj2, err := rlnc.Split(media2, p)
	if err != nil {
		t.Fatal(err)
	}
	saved := newFetcher(nil, DefaultFetcherConfig())
	saved.leaf = &leaf{decs: map[uint32]*rlnc.Decoder{}}
	for i, rank := range []int{p.BlockCount, 3} {
		dec, err := rlnc.NewDecoder(p)
		if err != nil {
			t.Fatal(err)
		}
		enc := rlnc.NewEncoder(obj2.Segments[i], rand.New(rand.NewSource(int64(60+i))))
		for dec.Rank() < rank {
			if _, err := dec.AddBlock(enc.NextBlock()); err != nil {
				t.Fatal(err)
			}
		}
		saved.leaf.decs[uint32(i)] = dec
	}
	blob, err := saved.State()
	if err != nil {
		t.Fatal(err)
	}
	l2 := newPipeListener()
	defer l2.Close()
	flakyServer(t, l2, media2, p, 4*p.BlockCount, nil)
	var resumed *Fetcher
	var atHandshake []byte
	fcfg = DefaultFetcherConfig()
	fcfg.ResumeState = blob
	fcfg.MaxAttempts = 1
	fcfg.SessionHook = func(SessionInfo) { atHandshake = bytes.Clone(resumed.leaf.obj[:p.SegmentSize()]) }
	resumed = newTestFetcher(t, func(context.Context) (net.Conn, error) { return l2.Dial(), nil }, fcfg)
	res4, err := resumed.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res4.Payload, media2) {
		t.Fatal("resumed two-segment fetch payload differs")
	}
	if !bytes.Equal(atHandshake, media2[:p.SegmentSize()]) {
		t.Fatal("the complete segment was not in its window at the first handshake")
	}
	if got := resumed.leaf.decs[0].Received(); got != p.BlockCount {
		t.Fatalf("the complete segment's decoder was offered %d records, want the %d it was saved with", got, p.BlockCount)
	}
	if seg := res4.Segments[0]; &seg.Data()[0] != &res4.Payload[0] {
		t.Fatal("segment 0 of the result is not a view of the payload")
	}
}

// TestFetcherRejectClassification: CRC-valid records with hostile segment
// IDs must not allocate decoders or stall convergence, and shape-vs-noise
// rejects land in separate counters.
func TestFetcherRejectClassification(t *testing.T) {
	p := rlnc.Params{BlockCount: 4, BlockSize: 32}
	media := testMedia(t, p.SegmentSize(), 24)
	l := newPipeListener()
	defer l.Close()
	flakyServer(t, l, media, p, 2*p.BlockCount+4, func(session int, conn net.Conn) bool {
		// Session 0 leads with hostile-but-checksummed records: an
		// out-of-range segment ID, and a wrong-shape block whose wire size
		// matches the session's records (n+1, k-1).
		if session != 0 {
			return false
		}
		hostile := &rlnc.CodedBlock{
			SegmentID: 4_000_000,
			Coeffs:    make([]byte, p.BlockCount),
			Payload:   make([]byte, p.BlockSize),
		}
		hostile.Coeffs[0] = 1
		rec, err := FrameRecord(hostile, ModeDense)
		if err != nil || writeAll(conn, rec) != nil {
			return true
		}
		shape := &rlnc.CodedBlock{
			SegmentID: 0,
			Coeffs:    make([]byte, p.BlockCount+1),
			Payload:   make([]byte, p.BlockSize-1),
		}
		shape.Coeffs[0] = 1
		rec, err = FrameRecord(shape, ModeDense)
		if err != nil || writeAll(conn, rec) != nil {
			return true
		}
		return false // continue with the honest stream
	})

	fcfg := DefaultFetcherConfig()
	fcfg.BackoffBase = time.Millisecond
	fcfg.BackoffMax = time.Millisecond
	f := newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := f.Fetch(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload differs")
	}
	if res.Stats.BadSegment != 1 {
		t.Fatalf("bad-segment records = %d, want 1", res.Stats.BadSegment)
	}
	if res.Stats.Malformed != 1 {
		t.Fatalf("malformed records = %d, want 1", res.Stats.Malformed)
	}
	if res.Stats.Corrupt != 0 {
		t.Fatalf("corrupt = %d on an uncorrupted link", res.Stats.Corrupt)
	}
	if _, leaked := res.Ranks[4_000_000]; leaked {
		t.Fatal("hostile segment ID allocated a decoder")
	}
	if res.Stats.BytesDiscarded == 0 {
		t.Fatal("rejected records not counted as discarded bytes")
	}
}

func writeAll(c net.Conn, b []byte) error {
	_, err := c.Write(b)
	return err
}

// TestFetcherHeaderMismatch: a reconnect answered with a different object
// is fatal — accumulated rank cannot be extended by a different stream.
func TestFetcherHeaderMismatch(t *testing.T) {
	l := newPipeListener()
	defer l.Close()
	go func() {
		for i := 0; ; i++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			h := SessionInfo{Params: rlnc.Params{BlockCount: 4, BlockSize: 64}, Segments: 1, Length: 256}
			if i > 0 {
				h.Segments = 2
				h.Length = 512
			}
			conn.Write(appendSessionHeader(nil, handshake{hdr: h}))
			conn.Close() // truncate: force a reconnect
		}
	}()
	fcfg := DefaultFetcherConfig()
	fcfg.MaxAttempts = 4
	fcfg.BackoffBase = time.Millisecond
	fcfg.BackoffMax = time.Millisecond
	f := newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
	res, err := f.Fetch(context.Background())
	if !errors.Is(err, ErrHeaderMismatch) {
		t.Fatalf("err = %v, want ErrHeaderMismatch", err)
	}
	if res.Stats.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (mismatch is fatal, not retried)", res.Stats.Attempts)
	}
}

// TestBackoffSchedule is the table-driven contract of backoffDelay:
// doubling, caps, jitter bounds, and degenerate configurations.
func TestBackoffSchedule(t *testing.T) {
	const base, cap = 10 * time.Millisecond, 80 * time.Millisecond
	cases := []struct {
		name   string
		retry  int
		base   time.Duration
		max    time.Duration
		jitter float64
		lo, hi time.Duration
	}{
		{"first retry", 1, base, cap, 0, base, base},
		{"doubles", 2, base, cap, 0, 2 * base, 2 * base},
		{"doubles again", 3, base, cap, 0, 4 * base, 4 * base},
		{"hits cap", 4, base, cap, 0, cap, cap},
		{"stays capped", 20, base, cap, 0, cap, cap},
		{"huge retry no overflow", 500, base, cap, 0, cap, cap},
		{"jitter half", 2, base, cap, 0.5, base, 3 * base},
		{"jitter full", 1, base, cap, 1, 0, 2 * base},
		{"jitter capped", 20, base, cap, 0.5, cap / 2, cap},
		{"zero base disables", 5, 0, cap, 0.5, 0, 0},
		{"cap below base", 3, base, base / 2, 0, base, base},
	}
	rng := rand.New(rand.NewSource(77))
	for _, tc := range cases {
		for i := 0; i < 200; i++ {
			d := backoffDelay(tc.retry, tc.base, tc.max, tc.jitter, rng)
			if d < tc.lo || d > tc.hi {
				t.Fatalf("%s: delay %v outside [%v, %v]", tc.name, d, tc.lo, tc.hi)
			}
		}
	}
}

// TestBackoffCtxCancel: cancelling the context mid-backoff unblocks the
// fetch immediately with the context error and the partial result.
func TestBackoffCtxCancel(t *testing.T) {
	dialErr := errors.New("refused")
	fcfg := DefaultFetcherConfig()
	fcfg.BackoffBase = time.Hour // without cancellation this never returns
	fcfg.BackoffMax = time.Hour
	f := newTestFetcher(t, func(context.Context) (net.Conn, error) { return nil, dialErr }, fcfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		res, err := f.Fetch(ctx)
		if res == nil || res.Stats == nil {
			err = errors.New("no result with cancellation")
		}
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 5*time.Second {
			t.Fatalf("cancellation took %v", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fetch did not unblock on cancel during backoff")
	}
}

// TestFetcherDialBudget: dial failures consume attempts and surface both
// the budget sentinel and the dial error.
func TestFetcherDialBudget(t *testing.T) {
	dialErr := errors.New("connection refused")
	fcfg := DefaultFetcherConfig()
	fcfg.MaxAttempts = 3
	fcfg.BackoffBase = time.Microsecond
	fcfg.BackoffMax = time.Microsecond
	f := newTestFetcher(t, func(context.Context) (net.Conn, error) { return nil, dialErr }, fcfg)
	res, err := f.Fetch(context.Background())
	if !errors.Is(err, ErrFetchBudget) || !errors.Is(err, dialErr) {
		t.Fatalf("err = %v, want ErrFetchBudget wrapping the dial error", err)
	}
	if res.Stats.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Stats.Attempts)
	}
}

// TestFetcherTwoStageUnderFaults drives the two-stage decoder through the
// record path under everything a link and a sender can do to a stream at
// once: a faultnet link that corrupts records (loss: the CRC rejects them) and
// resets the connection (reconnects), and a sender that duplicates and
// reorders its records. The fetch is cut short mid-segment, its state saved —
// coefficient planes and payload slabs serialized as reduced rows — and a
// second fetcher resumes from the blob to a byte-identical payload without
// ever losing rank.
func TestFetcherTwoStageUnderFaults(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 96}
	media := testMedia(t, 3*p.SegmentSize()-7, 31)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	l := newPipeListener()
	defer l.Close()
	go func() {
		for session := 0; ; session++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn) //nolint:errcheck // need records, ignored
			h := SessionInfo{Params: p, Segments: len(obj.Segments), Length: int64(obj.Length)}
			if _, err := conn.Write(appendSessionHeader(nil, handshake{hdr: h})); err != nil {
				conn.Close()
				continue
			}
			rng := rand.New(rand.NewSource(int64(session) + 500))
			encoders := make([]*rlnc.Encoder, len(obj.Segments))
			for i, seg := range obj.Segments {
				encoders[i] = rlnc.NewEncoder(seg, rng)
			}
			// Windows of six records round-robin over the segments, each
			// window sent shuffled and with one record repeated.
		stream:
			for w := 0; w < 5; w++ {
				var window [][]byte
				for r := 0; r < 6; r++ {
					rec, err := FrameRecord(encoders[(6*w+r)%len(encoders)].NextBlock(), ModeDense)
					if err != nil {
						break stream
					}
					window = append(window, rec)
				}
				window = append(window, window[rng.Intn(len(window))])
				rng.Shuffle(len(window), func(i, j int) { window[i], window[j] = window[j], window[i] })
				for _, rec := range window {
					if _, err := conn.Write(rec); err != nil {
						break stream
					}
				}
			}
			conn.Close()
		}
	}()

	dial, faults := faultnet.Dialer(faultnet.Config{
		Seed:         77,
		CorruptEvery: 900,
		ResetEvery:   2600,
		MaxReadChunk: 300,
	}, func(context.Context) (net.Conn, error) { return l.Dial(), nil })
	prev := map[uint32]int{}
	noRegress := func(ranks map[uint32]int) {
		for id, r := range ranks {
			if r < prev[id] {
				panic(fmt.Sprintf("segment %d lost rank: %d -> %d", id, prev[id], r))
			}
			prev[id] = r
		}
	}
	var first, second *Fetcher

	fcfg := DefaultFetcherConfig()
	fcfg.MaxAttempts = 2
	fcfg.BackoffBase, fcfg.BackoffMax = time.Millisecond, time.Millisecond
	fcfg.SessionHook = func(SessionInfo) { noRegress(first.Ranks()) }
	first = newTestFetcher(t, dial, fcfg)
	res, err := first.Fetch(context.Background())
	if err == nil {
		t.Fatal("two short sessions unexpectedly completed the fetch")
	}
	partial := 0
	for _, r := range res.Ranks {
		if r > 0 && r < p.BlockCount {
			partial++
		}
	}
	if partial == 0 {
		t.Fatalf("cut landed on no partly decoded segment: ranks %v", res.Ranks)
	}
	state, err := first.State()
	if err != nil {
		t.Fatal(err)
	}
	noRegress(res.Ranks)

	fcfg = DefaultFetcherConfig()
	fcfg.ResumeState = state
	fcfg.BackoffBase, fcfg.BackoffMax = time.Millisecond, time.Millisecond
	fcfg.SessionHook = func(SessionInfo) { noRegress(second.Ranks()) }
	second = newTestFetcher(t, dial, fcfg)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res2, err := second.Fetch(ctx)
	if err != nil {
		t.Fatalf("resumed fetch: %v (stats %+v, faults %+v)", err, res2.Stats, faults.View())
	}
	if !bytes.Equal(res2.Payload, media) {
		t.Fatal("payload not byte-identical after faults and a resume")
	}
	for id, r := range res.Ranks {
		if res2.Ranks[id] < r {
			t.Fatalf("segment %d resumed below its saved rank", id)
		}
	}
	total := res.Stats.Dependent + res2.Stats.Dependent
	if total == 0 {
		t.Fatal("duplicated records never showed up as dependent")
	}
	if res.Stats.Corrupt+res2.Stats.Corrupt+res.Stats.FramingResyncs+res2.Stats.FramingResyncs == 0 {
		t.Fatalf("no corruption reached the ledgers: faults %+v", faults.View())
	}
	if res.Stats.Reconnects+res2.Stats.Reconnects == 0 || faults.View().Resets == 0 {
		t.Fatalf("no reconnect happened: faults %+v", faults.View())
	}
}

// streamConn is a connection whose read side replays a byte stream and whose
// write side takes the fetcher's need records and drops them; the record
// path's allocation test has no use for a peer.
type streamConn struct {
	net.Conn // nil: only the methods below are called
	r        bytes.Reader
}

func (c *streamConn) Read(p []byte) (int, error)      { return c.r.Read(p) }
func (c *streamConn) Write(p []byte) (int, error)     { return len(p), nil }
func (c *streamConn) Close() error                    { return nil }
func (c *streamConn) SetReadDeadline(time.Time) error { return nil }

// counterStream is a counter session of obj's one segment under key: records
// of indices 0 … n−2, then extra records that reuse an index already sent —
// even ones verbatim, odd ones forged with another payload under a valid CRC
// — then index n−1.
func counterStream(t testing.TB, obj *rlnc.Object, key uint64, extra int) []byte {
	t.Helper()
	p, seg := obj.Params, obj.Segments[0]
	h := SessionInfo{Params: p, Segments: 1, Length: int64(obj.Length)}
	buf := appendSessionHeader(nil, handshake{hdr: h, flags: hsFlagCounter, key: key})
	frame := func(rec []byte) {
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(rec)))
		buf = append(buf, rec...)
	}
	n := uint32(p.BlockCount)
	for index := range n - 1 {
		frame(rlnc.CounterRecord(seg, key, index))
	}
	for i := range extra {
		rec := rlnc.CounterRecord(seg, key, uint32(i)%(n-1))
		if i%2 == 1 {
			payload := rec[20 : len(rec)-4]
			for j := range payload {
				payload[j] ^= byte(i + j)
			}
			rlnc.SealWire(rec)
		}
		frame(rec)
	}
	frame(rlnc.CounterRecord(seg, key, n-1))
	return buf
}

// recodedCounterStream is a one-segment counter session under key at n = 32
// with both kinds of record a relay over a counter origin sends: counter
// records 0…n/2−1 as they arrived, then XNC1 recombinations of the whole
// segment, n/2 + 2 of them.
// With xnc2 set, the second record after the counter ones is an XNC2 record
// of a source block instead: at n = 32 its bitmask is as long as an index, so
// its length prefix is a counter session's, and only its magic tells.
func recodedCounterStream(tb testing.TB, key uint64, xnc2 bool) (stream, media []byte) {
	tb.Helper()
	p := rlnc.Params{BlockCount: 32, BlockSize: 64}
	media = testMedia(tb, p.SegmentSize(), 47)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		tb.Fatal(err)
	}
	seg, n := obj.Segments[0], p.BlockCount
	format := rlnc.RecordFormat{Params: p, Counter: true, Key: key}
	stream = appendSessionHeader(nil, handshake{hdr: SessionInfo{Params: p, Segments: 1, Length: int64(len(media))}, flags: hsFlagCounter, key: key})
	frame := func(rec []byte) {
		stream = binary.BigEndian.AppendUint32(stream, uint32(len(rec)))
		stream = append(stream, rec...)
	}
	recoder, err := rlnc.NewRecoder(p, rlnc.WithSeed(48))
	if err != nil {
		tb.Fatal(err)
	}
	for index := range uint32(n) {
		rec := rlnc.CounterRecord(seg, key, index)
		var b rlnc.CodedBlock
		if err := b.ParseView(rec, format); err != nil {
			tb.Fatal(err)
		}
		if err := recoder.Add(&b); err != nil {
			tb.Fatal(err)
		}
		if int(index) < n/2 {
			frame(rec)
		}
	}
	for i := range n/2 + 2 {
		if xnc2 && i == 1 {
			coeffs := make([]byte, n)
			coeffs[0] = 1
			rec, err := FrameRecord(&rlnc.CodedBlock{SegmentID: seg.ID(), Coeffs: coeffs, Payload: seg.Block(0)}, ModeSystematic)
			if err != nil {
				tb.Fatal(err)
			}
			frame(rec[recordLenLen:])
			continue
		}
		b, err := recoder.Emit()
		if err != nil {
			tb.Fatal(err)
		}
		rec, err := b.MarshalBinary()
		if err != nil {
			tb.Fatal(err)
		}
		frame(rec)
	}
	return stream, media
}

// TestCounterSessionAdmitsRecodes: a counter session carries XNC3 records and
// XNC1 ones — a relay's recodes, their coefficients read off the record —
// and a leaf and a recoder sink both reach full rank from the mix with
// nothing refused; an XNC2 record, though its length prefix is a counter
// session's, is refused as damage and costs the fetch nothing else.
func TestCounterSessionAdmitsRecodes(t *testing.T) {
	const key = 0xC0FFEE
	// The stream's reader takes the need record a refused record makes the
	// fetch write, and hangs up only once read to its end.
	fetch := func(stream []byte, cfg FetcherConfig) (*FetchResult, error) {
		conn := &streamConn{}
		conn.r.Reset(stream)
		cfg.MaxAttempts = 1
		return newTestFetcher(t, func(context.Context) (net.Conn, error) { return conn, nil }, cfg).Fetch(context.Background())
	}
	for _, xnc2 := range []bool{false, true} {
		stream, media := recodedCounterStream(t, key, xnc2)
		res, err := fetch(stream, DefaultFetcherConfig())
		if err != nil || !bytes.Equal(res.Payload, media) {
			t.Fatalf("xnc2 %v: leaf fetch of a recoded counter session: %v", xnc2, err)
		}
		want := 0
		if xnc2 {
			want = 1
		}
		if st := res.Stats; st.Corrupt != want || st.Malformed+st.BadSegment+st.FramingResyncs != 0 {
			t.Fatalf("xnc2 %v: %d corrupt, %d malformed, %d bad segment, %d resyncs: want %d corrupt and nothing else refused", xnc2, st.Corrupt, st.Malformed, st.BadSegment, st.FramingResyncs, want)
		}
		bank := recoderBank{}
		cfg := DefaultFetcherConfig()
		cfg.Sink = bank
		if res, err := fetch(stream, cfg); err != nil || bank[0].Rank() != 32 || res.Stats.Corrupt != want {
			t.Fatalf("xnc2 %v: sink fetch: %v, rank %d, %d corrupt", xnc2, err, bank[0].Rank(), res.Stats.Corrupt)
		}
	}
}

// TestCounterSessionRepeatedIndex: what a repeated or forged index costs a
// leaf on a counter session — a record whose index the leaf already holds,
// verbatim or with another payload under a valid CRC — is exactly one
// dependent record: rank does not move, the forged payload never reaches the
// decoder, and the object decodes intact. (That it costs no allocation either
// is TestFetcherRecordPathDoesNotAllocate's counter leg.)
func TestCounterSessionRepeatedIndex(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 512}
	media := testMedia(t, p.SegmentSize(), 46)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	const extra = 10
	fcfg := DefaultFetcherConfig()
	var ranks []int
	var f *Fetcher
	fcfg.RecordTap = func(b *rlnc.CodedBlock) { ranks = append(ranks, f.Ranks()[b.SegmentID]) }
	conn := &streamConn{}
	conn.r.Reset(counterStream(t, obj, 0xFACE, extra))
	fcfg.MaxAttempts = 1
	f = newTestFetcher(t, func(context.Context) (net.Conn, error) { return conn, nil }, fcfg)
	res, err := f.Fetch(context.Background())
	if err != nil || !bytes.Equal(res.Payload, media) {
		t.Fatalf("fetch: %v", err)
	}
	if st := res.Stats; st.Records != p.BlockCount+extra || st.Dependent != extra || st.Corrupt+st.Malformed+st.BadSegment != 0 {
		t.Fatalf("records %d, dependent %d, rejected %d: want %d, %d, 0", st.Records, st.Dependent, st.Corrupt+st.Malformed+st.BadSegment, p.BlockCount+extra, extra)
	}
	for i, r := range ranks {
		if want := min(i+1, p.BlockCount-1); i == len(ranks)-1 {
			if r != p.BlockCount {
				t.Fatalf("rank %d after the last record", r)
			}
		} else if r != want {
			t.Fatalf("rank %d after record %d, want %d: a reused index moved rank", r, i, want)
		}
	}
}

// TestFetcherRecordPathDoesNotAllocate: a session parses every record into one
// reused CodedBlock out of one reused buffer — the record tap gets that same
// block — and the decoder copies what it keeps into pooled storage — the plane
// and slab on the dense path, the row slab on the GF(2) path — so a fetch of
// one segment allocates the same whether the segment arrives as 16 records or
// as 16 plus 48 more dependent ones. That is zero allocations per record, in
// both modes and on a counter session — whose extra records reuse indices
// already held, verbatim or forged, and whose vectors are regenerated into
// the reused block — and on a sink fetch into recoders, which allocate only
// for an innovative record.
func TestFetcherRecordPathDoesNotAllocate(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 512}
	media := testMedia(t, p.SegmentSize(), 41)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	seg := obj.Segments[0]
	// extra dependent records — recombinations of the first ones — arrive
	// before the last innovative one, so every one of them is parsed, offered
	// to a decoder below full rank and reduced.
	dense := func(extra int) []byte {
		rng := rand.New(rand.NewSource(42))
		enc := rlnc.NewEncoder(seg, rng)
		var buf bytes.Buffer
		if _, err := buf.Write(appendSessionHeader(nil, handshake{hdr: SessionInfo{Params: p, Segments: 1, Length: int64(obj.Length)}})); err != nil {
			t.Fatal(err)
		}
		held := make([]*rlnc.CodedBlock, 0, p.BlockCount)
		emit := func(b *rlnc.CodedBlock) {
			rec, err := FrameRecord(b, ModeDense)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(rec)
		}
		for len(held) < p.BlockCount-1 {
			b := enc.NextBlock()
			held = append(held, b)
			emit(b)
		}
		rc, err := rlnc.NewRecoder(p, rlnc.WithSeed(43))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range held {
			if err := rc.Add(b); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < extra; i++ {
			b, err := rc.Emit()
			if err != nil {
				t.Fatal(err)
			}
			emit(b)
		}
		emit(enc.NextBlock())
		return buf.Bytes()
	}
	// The systematic session: all source blocks but the last, then XOR repair
	// over those same blocks — binary, so the decoder stays on its GF(2) path,
	// and dependent — then the last source block.
	systematic := func(extra int) []byte {
		var buf bytes.Buffer
		if _, err := buf.Write(appendSessionHeader(nil, handshake{hdr: SessionInfo{Params: p, Segments: 1, Length: int64(obj.Length), Mode: ModeSystematic}})); err != nil {
			t.Fatal(err)
		}
		emit := func(b *rlnc.CodedBlock) {
			rec, err := FrameRecord(b, ModeSystematic)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(rec)
		}
		se := rlnc.NewSystematicEncoder(seg, rand.New(rand.NewSource(44)))
		for i := 0; i < p.BlockCount-1; i++ {
			emit(se.Block())
		}
		last := se.Block().Clone()
		rng := rand.New(rand.NewSource(45))
		for i := 0; i < extra; i++ {
			repair := &rlnc.CodedBlock{SegmentID: seg.ID(), Coeffs: make([]byte, p.BlockCount), Payload: make([]byte, p.BlockSize)}
			for c := 0; c < p.BlockCount-1; c++ {
				if rng.Intn(2) == 1 {
					repair.Coeffs[c] = 1
					gf256.XorSlice(repair.Payload, seg.Block(c))
				}
			}
			emit(repair)
		}
		emit(last)
		return buf.Bytes()
	}
	counter := func(extra int) []byte { return counterStream(t, obj, 0xFACE, extra) }
	tapped := 0
	fetchAllocs := func(wire []byte, records int, sink bool) float64 {
		conn := &streamConn{}
		return testing.AllocsPerRun(20, func() {
			conn.r.Reset(wire)
			fcfg := DefaultFetcherConfig()
			fcfg.MaxAttempts = 1
			fcfg.RecordTap = func(b *rlnc.CodedBlock) { tapped += len(b.Payload) }
			want := media
			if sink {
				fcfg.Sink, want = recoderBank{}, nil
			}
			res, err := newTestFetcher(t, func(context.Context) (net.Conn, error) { return conn, nil }, fcfg).Fetch(context.Background())
			if err != nil || !bytes.Equal(res.Payload, want) {
				t.Fatalf("fetch: %v", err)
			}
			if res.Stats.Records != records || res.Stats.Dependent != records-p.BlockCount {
				t.Fatalf("records %d dependent %d, want %d and %d", res.Stats.Records, res.Stats.Dependent, records, records-p.BlockCount)
			}
		})
	}
	// A GC in the middle of a run empties the pools the steady state relies
	// on and would charge the refill to whichever run it hit.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, mode := range []struct {
		name   string
		stream func(extra int) []byte
	}{{"dense", dense}, {"systematic", systematic}, {"counter", counter}} {
		for _, sink := range []bool{false, true} {
			short := fetchAllocs(mode.stream(0), p.BlockCount, sink)
			long := fetchAllocs(mode.stream(48), p.BlockCount+48, sink)
			// One allocation per record would show as 48 more; the race detector's
			// sync.Pool, which drops Puts at random, shows as one or two either way.
			if perRecord := (long - short) / 48; perRecord > 0.25 || perRecord < -0.25 {
				t.Fatalf("%s (sink %v): a fetch allocates %v times over %d records and %v over %d: %.2f allocations per extra record, want 0",
					mode.name, sink, short, p.BlockCount, long, p.BlockCount+48, perRecord)
			}
		}
	}
	if tapped == 0 {
		t.Fatal("the record tap never ran")
	}

	// Per fetch: every segment decodes in place into one object buffer, which
	// is the payload, so a two-segment fetch allocates that buffer and little
	// else — not a segment per decoder and a reassembled copy besides. The
	// race detector's sync.Pool drops Puts at random, and a dropped decoder
	// scratch is half a segment: the bound is measured without it.
	if raceEnabled {
		return
	}
	p2 := rlnc.Params{BlockCount: 32, BlockSize: 4096}
	media2 := testMedia(t, 2*p2.SegmentSize()-100, 47)
	obj2, err := rlnc.Split(media2, p2)
	if err != nil {
		t.Fatal(err)
	}
	streams := map[string]func() []byte{
		"dense": func() []byte {
			h := SessionInfo{Params: p2, Segments: 2, Length: int64(len(media2))}
			wire := appendSessionHeader(nil, handshake{hdr: h})
			rng := rand.New(rand.NewSource(48))
			for _, seg := range obj2.Segments {
				enc := rlnc.NewEncoder(seg, rng)
				for range p2.BlockCount + 2 {
					rec, err := FrameRecord(enc.NextBlock(), ModeDense)
					if err != nil {
						t.Fatal(err)
					}
					wire = append(wire, rec...)
				}
			}
			return wire
		},
		"systematic": func() []byte {
			h := SessionInfo{Params: p2, Segments: 2, Length: int64(len(media2)), Mode: ModeSystematic}
			wire := appendSessionHeader(nil, handshake{hdr: h})
			for _, seg := range obj2.Segments {
				se := rlnc.NewSystematicEncoder(seg, rand.New(rand.NewSource(49)))
				for range p2.BlockCount {
					rec, err := FrameRecord(se.Block(), ModeSystematic)
					if err != nil {
						t.Fatal(err)
					}
					wire = append(wire, rec...)
				}
			}
			return wire
		},
		"counter": func() []byte {
			h := SessionInfo{Params: p2, Segments: 2, Length: int64(len(media2))}
			wire := appendSessionHeader(nil, handshake{hdr: h, flags: hsFlagCounter, key: 0xBEEF})
			for _, seg := range obj2.Segments {
				for index := range uint32(p2.BlockCount) {
					rec := rlnc.CounterRecord(seg, 0xBEEF, index)
					wire = binary.BigEndian.AppendUint32(wire, uint32(len(rec)))
					wire = append(wire, rec...)
				}
			}
			return wire
		},
	}
	for _, name := range []string{"dense", "systematic", "counter"} {
		wire := streams[name]()
		conn := &streamConn{}
		fetch := func() {
			conn.r.Reset(wire)
			fcfg := DefaultFetcherConfig()
			fcfg.MaxAttempts = 1
			res, err := newTestFetcher(t, func(context.Context) (net.Conn, error) { return conn, nil }, fcfg).Fetch(context.Background())
			if err != nil || !bytes.Equal(res.Payload, media2) {
				t.Fatalf("%s: fetch: %v", name, err)
			}
		}
		// A collection still running from an earlier test would empty the
		// pools mid-measurement (2 package runs in 12 failed so): finish it,
		// then warm them: session reader, decoder scratch.
		runtime.GC()
		fetch()
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			fetch()
		}
		runtime.ReadMemStats(&after)
		perFetch := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if perFetch > 1.1*float64(len(media2)) {
			t.Fatalf("%s: a %d-byte two-segment fetch allocates %.0f bytes, want <= 1.1x its length", name, len(media2), perFetch)
		}
		t.Logf("%s: %.0f bytes allocated per %d-byte fetch (%.3fx)", name, perFetch, len(media2), perFetch/float64(len(media2)))
	}
}
