package netio

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"

	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

// TestRecordPreludeRoundTrip: the per-record round prelude survives a cycle
// and any single corrupted byte is detected as framing loss.
func TestRecordPreludeRoundTrip(t *testing.T) {
	var buf [recordPreludeLen]byte
	putRecordPrelude(buf[:], 0x0123456789ABCDEF)
	got, err := parseRecordPrelude(buf[:])
	if err != nil || got != 0x0123456789ABCDEF {
		t.Fatalf("round trip: %v %v", got, err)
	}
	for i := 0; i < recordPreludeLen; i++ {
		dam := buf
		dam[i] ^= 0x40
		if _, err := parseRecordPrelude(dam[:]); !errors.Is(err, ErrRecordLength) {
			t.Fatalf("byte %d corrupted: err = %v, want ErrRecordLength", i, err)
		}
	}
}

// TestUnknownHeaderFlagsRejected: a header declaring a feature bit this
// implementation does not know must be rejected — the feature may change
// record framing, so parsing on is stream corruption.
func TestUnknownHeaderFlagsRejected(t *testing.T) {
	h := SessionInfo{Params: rlnc.Params{BlockCount: 4, BlockSize: 64}, Segments: 1, Length: 100}
	var buf bytes.Buffer
	if _, err := buf.Write(appendSessionHeader(nil, handshake{hdr: h, flags: hsFlagTrace | 1<<9})); err != nil {
		t.Fatal(err)
	}
	if _, err := readHandshake(&buf); !errors.Is(err, ErrBadHandshake) {
		t.Fatalf("unknown flag: %v, want ErrBadHandshake", err)
	}
}

// TestTracedSessionEndToEnd is the causal-linkage test: a traced server and
// a traced fetcher over an in-memory pipe must produce a span dump in which
// every record's absorb span parents under a real pump-round span — zero
// orphans — and the fetcher inherits the server's trace context.
func TestTracedSessionEndToEnd(t *testing.T) {
	trace.Enable(1 << 14)
	defer trace.Disable()

	p := rlnc.Params{BlockCount: 8, BlockSize: 256}
	media := testMedia(t, 2*p.SegmentSize(), 7)
	cfg := DefaultServerConfig()
	cfg.TraceNode = "origin"
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !srv.traced || srv.traceID == 0 {
		t.Fatalf("server not traced: traced=%v id=%d", srv.traced, srv.traceID)
	}
	l := startPipeServer(t, srv)

	fcfg := DefaultFetcherConfig()
	fcfg.TraceNode = "leaf"
	fcfg.MaxAttempts = 1
	f := newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
	res, err := f.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("payload differs")
	}

	tr, root, ok := f.TraceContext()
	if !ok || tr != srv.traceID || root == 0 {
		t.Fatalf("inherited context: ok=%v trace=%d root=%d (server %d)", ok, tr, root, srv.traceID)
	}
	if f.LastRoundSpan() == 0 {
		t.Fatal("no round prelude observed")
	}

	srv.Shutdown() // ends the root span so the dump holds the full tree
	asm := trace.Assemble(trace.Dump())
	if asm.Orphans != 0 {
		t.Fatalf("%d orphan spans", asm.Orphans)
	}
	if asm.Spans == 0 || len(asm.Generations) == 0 {
		t.Fatalf("no spans assembled: %+v", asm)
	}
	for _, stage := range []string{"encode", "absorb"} {
		found := false
		for _, g := range asm.Generations {
			if g.StageTotal(stage) > 0 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no generation carries stage %q", stage)
		}
	}
}

// TestRawClientTracedSession: the capacity-measurement client consumes a
// traced stream (prelude per record) without miscounting framing.
func TestRawClientTracedSession(t *testing.T) {
	trace.Enable(1 << 12)
	defer trace.Disable()

	p := rlnc.Params{BlockCount: 4, BlockSize: 128}
	media := testMedia(t, p.SegmentSize(), 11)
	cfg := DefaultServerConfig()
	cfg.TraceNode = "origin"
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	l := startPipeServer(t, srv)

	rc, err := NewRawClient(l.Dial())
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if !rc.traced {
		t.Fatal("raw client did not negotiate tracing")
	}
	want := rlnc.WireSize(p) + 4 + recordPreludeLen
	for i := 0; i < 8; i++ {
		n, err := rc.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if n != want {
			t.Fatalf("record %d: %d wire bytes, want %d", i, n, want)
		}
	}
}
