package netio

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"extremenc/internal/rlnc"
)

// TestServerRefusesOversizedMediaBeforeSplit: media that would split into
// more segments than a session may declare is refused before any segment is
// built — a 65,537-byte and a 1 MiB media at n = 1, k = 1 each cost the
// refusal at most 64 KiB, in either mode, where splitting them first cost
// megabytes.
func TestServerRefusesOversizedMediaBeforeSplit(t *testing.T) {
	p := rlnc.Params{BlockCount: 1, BlockSize: 1}
	for _, size := range []int{maxSegments + 1, 1 << 20} {
		media := make([]byte, size)
		for _, mode := range []WireMode{ModeDense, ModeSystematic} {
			cfg := DefaultServerConfig()
			cfg.Mode = mode
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := NewServerFromConfig(media, p, cfg)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "segments") {
				t.Fatalf("%v: %d bytes at %v: %v, want a refusal", mode, size, p, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
				t.Fatalf("%v: refusing %d bytes at %v allocated %d B, want ≤ 64 KiB", mode, size, p, alloc)
			} else {
				t.Logf("%v: refusing %d bytes allocated %d B", mode, size, alloc)
			}
		}
	}
}

// TestServerHoldsMediaOnce: a server serves the media it is handed, not a
// copy. Building one over 8 MiB allocates at most 64 KiB plus a few hundred
// bytes and n block headers a segment, in either mode; a systematic and a
// dense fetch from it decode the media byte for byte, and the media is
// unchanged afterwards.
func TestServerHoldsMediaOnce(t *testing.T) {
	p := rlnc.Params{BlockCount: 128, BlockSize: 4096}
	media := testMedia(t, 8<<20, 50)
	snapshot := bytes.Clone(media)
	segments := len(media) / p.SegmentSize()
	bound := uint64(64<<10 + segments*(p.BlockCount*int(unsafe.Sizeof([]byte(nil)))+512))
	for _, mode := range []WireMode{ModeSystematic, ModeDense} {
		cfg := DefaultServerConfig()
		cfg.Mode = mode
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		srv, err := NewServerFromConfig(media, p, cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > bound {
			srv.Shutdown()
			t.Fatalf("%v: building a server over %d B allocated %d B, want ≤ %d B", mode, len(media), alloc, bound)
		} else {
			t.Logf("%v: building a server over %d B allocated %d B (bound %d B)", mode, len(media), alloc, bound)
		}
		l := startPipeServer(t, srv)
		payload, _, err := Fetch(context.Background(), l.Dial())
		if err != nil {
			t.Fatalf("%v fetch: %v", mode, err)
		}
		if !bytes.Equal(payload, snapshot) {
			t.Fatalf("%v fetch decoded %d bytes that differ from the media", mode, len(payload))
		}
	}
	if !bytes.Equal(media, snapshot) {
		t.Fatal("serving changed the media")
	}
}

// gatedSource is a RecordSource whose second Sweep call blocks until release
// is closed: a sweep table still cold, caught mid-encode.
type gatedSource struct {
	RecordSource
	calls   atomic.Int32
	release chan struct{}
}

func (g *gatedSource) Sweep(seg, i int) []byte {
	if g.calls.Add(1) == 2 {
		<-g.release
	}
	return g.RecordSource.Sweep(seg, i)
}

// TestColdSweepFirstRecordAfterOneEncode: on a dense origin whose sweep table
// is cold, a session's first record leaves after one encode — the one its
// handshake asked for — not after a flush's worth. While the table's second
// encode is held, the client has its first record, and it is the only one
// encoded or sent; released, the session sweeps the rest.
func TestColdSweepFirstRecordAfterOneEncode(t *testing.T) {
	p := rlnc.Params{BlockCount: 32, BlockSize: 256}
	srv, err := NewServerFromConfig(testMedia(t, p.SegmentSize(), 51), p, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	gate := &gatedSource{RecordSource: srv.src, release: make(chan struct{})}
	srv.src = gate
	var once sync.Once
	release := func() { once.Do(func() { close(gate.release) }) }
	l := startPipeServer(t, srv)
	t.Cleanup(release) // before the server's cleanup, which waits on the session

	conn := l.Dial()
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	rc, err := NewRawClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Next(); err != nil {
		t.Fatalf("no first record while the table's second encode was held (%d Sweep calls): %v", gate.calls.Load(), err)
	}
	for deadline := time.Now().Add(5 * time.Second); gate.calls.Load() < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the session never asked for its second record")
		}
	}
	if snap := srv.Snapshot(); snap.BlocksEncoded != 1 || snap.BlocksSent != 1 {
		t.Fatalf("while the second encode is held: %d encoded, %d sent, want 1 and 1", snap.BlocksEncoded, snap.BlocksSent)
	}
	release()
	for i := 1; i < p.BlockCount; i++ {
		if _, err := rc.Next(); err != nil {
			t.Fatalf("sweep record %d: %v", i, err)
		}
	}
	if snap := srv.Snapshot(); snap.BlocksEncoded != int64(p.BlockCount) {
		t.Fatalf("the sweep encoded %d records, want %d", snap.BlocksEncoded, p.BlockCount)
	}
}
