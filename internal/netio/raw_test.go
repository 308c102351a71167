package netio

import (
	"net"
	"testing"
	"time"

	"extremenc/internal/rlnc"
)

// TestRawClientDrains: the wire-speed measurement client handshakes, reports
// the declared session shape, and consumes framed records without decoding.
func TestRawClientDrains(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize()-9, 58)
	cfg := DefaultServerConfig()
	cfg.WriteDeadline = 2 * time.Second
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
	if rc.Params() != p || rc.Segments() != 2 || rc.Length() != int64(len(media)) {
		t.Fatalf("handshake shape: params %+v segments %d length %d",
			rc.Params(), rc.Segments(), rc.Length())
	}
	if rc.Mode() != ModeDense {
		t.Fatalf("mode = %v, want dense", rc.Mode())
	}
	var wire int64
	for i := 0; i < 32; i++ {
		n, err := rc.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if n <= 4 {
			t.Fatalf("record %d wire size %d", i, n)
		}
		wire += int64(n)
	}
	if rc.Records() != 32 || rc.Bytes() != wire {
		t.Fatalf("ledger: records %d bytes %d, want 32 / %d", rc.Records(), rc.Bytes(), wire)
	}
}

// TestRawClientRejectsBadHandshake: a stream that is not an XNCP session is
// refused at handshake and the connection is closed.
func TestRawClientRejectsBadHandshake(t *testing.T) {
	client, server := net.Pipe()
	go func() {
		junk := make([]byte, protoHeaderLen)
		copy(junk, "JUNK")
		server.Write(junk)
	}()
	if _, err := NewRawClient(client); err == nil {
		t.Fatal("garbage handshake accepted")
	}
	// The failed constructor closed the conn.
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Fatal("connection left open after handshake failure")
	}
}
