package netio

import (
	"testing"
)

// TestFrameQueueOfferPopDrain pins the batched queue semantics the amortized
// fan-out relies on: bounded offers in order, caller-owned pops, and a drain
// that seals the queue and returns the residue exactly once.
func TestFrameQueueOfferPopDrain(t *testing.T) {
	pool := &framePool{}
	q := newFrameQueue(4)
	if q.cap() != 4 {
		t.Fatalf("cap = %d, want 4", q.cap())
	}
	frames := make([]*frameRef, 6)
	for i := range frames {
		frames[i] = pool.get(1)
		frames[i].buf[0] = byte(i)
	}
	if k := q.offerBatch(frames); k != 4 {
		t.Fatalf("offerBatch accepted %d of 6 into depth 4, want 4", k)
	}
	if q.len() != 4 {
		t.Fatalf("len = %d after full offer, want 4", q.len())
	}

	dst := make([]*frameRef, 2)
	if k := q.popBatch(dst); k != 2 {
		t.Fatalf("popBatch = %d, want 2", k)
	}
	for i, fr := range dst[:2] {
		if fr.buf[0] != byte(i) {
			t.Fatalf("pop %d returned frame %d: FIFO order broken", i, fr.buf[0])
		}
		fr.release() // writer's reference
	}

	// Two slots free again; offering the two rejects from before now fits.
	if k := q.offerBatch(frames[4:]); k != 2 {
		t.Fatalf("re-offer accepted %d, want 2", k)
	}

	rest := q.drain()
	if len(rest) != 4 {
		t.Fatalf("drain returned %d frames, want 4", len(rest))
	}
	for _, fr := range rest {
		fr.release()
	}
	if q.offerBatch(frames[:1]) != 0 {
		t.Fatal("a drained queue accepted an offer")
	}
	if q.len() != 0 {
		t.Fatalf("len = %d after drain, want 0", q.len())
	}

	// Drop the pump's own references; every frame must round-trip the pool
	// without a refcount underflow.
	for _, fr := range frames {
		fr.release()
	}
}

// TestFramePoolRecycles: a released frame's storage is reused by the next
// frame of equal-or-smaller size, header and buffer together, and get hands
// back cleared headers.
func TestFramePoolRecycles(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops Puts at random")
	}
	pool := &framePool{}
	fr := pool.get(64)
	fr.buf[0] = 0xEE
	fr.round, fr.seg = 7, 3
	fr.release()

	again := pool.get(16)
	if cap(again.buf) < 64 {
		t.Fatalf("recycled capacity %d, want the original 64", cap(again.buf))
	}
	if len(again.buf) != 16 {
		t.Fatalf("recycled length %d, want requested 16", len(again.buf))
	}
	if again.round != 0 || again.seg != -1 || again.refs.Load() != 1 {
		t.Fatalf("recycled header not cleared: round %d seg %d refs %d", again.round, again.seg, again.refs.Load())
	}
	again.release()

	// A too-small recycled buffer is dropped, never resliced past cap.
	big := pool.get(1 << 16)
	if len(big.buf) != 1<<16 {
		t.Fatalf("oversized frame length %d", len(big.buf))
	}
}

// TestFrameReleaseUnderflowPanics: releasing more often than retaining is a
// fan-out accounting bug and must fail loudly, not corrupt a recycled buffer.
func TestFrameReleaseUnderflowPanics(t *testing.T) {
	pool := &framePool{}
	fr := pool.get(8)
	fr.retain()
	fr.release()
	fr.release() // refcount hits zero: frame recycled
	defer func() {
		if recover() == nil {
			t.Fatal("release below zero did not panic")
		}
	}()
	fr.release()
}
