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

// TestUnknownHeaderFlagsRejected: a header declaring a feature bit this
// implementation does not know must be rejected — the feature may change
// record framing, so parsing on is stream corruption. Bits 0 and 1 are
// unassigned like bit 9.
func TestUnknownHeaderFlagsRejected(t *testing.T) {
	h := SessionInfo{Params: rlnc.Params{BlockCount: 4, BlockSize: 64}, Segments: 1, Length: 100}
	for _, flags := range []uint32{1 << 0, 1 << 1, 1 << 9} {
		hs, err := readHandshake(bytes.NewReader(appendSessionHeader(nil, handshake{hdr: h, flags: flags})))
		if !errors.Is(err, ErrBadHandshake) {
			t.Fatalf("unknown flag %#x: %+v, %v, want ErrBadHandshake", flags, hs, err)
		}
	}
}

// TestTracedSessionEndToEnd is the causal-linkage test: a traced server and
// a traced fetcher over an in-memory pipe must produce a span dump in which
// every absorb span parents under the server's root span — zero orphans — and
// the generations carry both the origin's encode and the leaf's absorb; the
// fetcher inherits the server's trace context.
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
	srv.Shutdown() // ends the root span so the dump holds the full tree
	events := trace.Dump()
	absorbs := 0
	for _, e := range events {
		if e.Kind == trace.KindSpan && e.Stage == "absorb" {
			absorbs++
			if e.Node != "leaf" || e.Trace != tr || e.Parent != root {
				t.Fatalf("absorb span %+v, want the leaf's under root %d of trace %d", e, root, tr)
			}
		}
	}
	if absorbs < 2*p.BlockCount {
		t.Fatalf("%d absorb spans, want one per record below full rank (≥ %d)", absorbs, 2*p.BlockCount)
	}
	asm := trace.Assemble(events)
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

// TestRawClientTracedSession: the capacity-measurement client reads a traced
// session's header for its trace context and then the records an untraced
// session carries — length prefix and XNC3 record, nothing more.
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
	if rc.hs.tctx != (traceContext{trace: srv.traceID, root: srv.rootSpan.ID()}) {
		t.Fatalf("header declares %+v, want the server's trace and root", rc.hs.tctx)
	}
	want := recordLenLen + rlnc.CounterWireSize(p)
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
