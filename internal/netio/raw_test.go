package netio

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
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

// TestClientsReadDamagedStreams: the Fetcher and RawClient read a session
// through one reader, so the same damage after one good record ends both the
// same way — framing loss (a length prefix of neither record size) is
// ErrRecordLength, a record cut short is
// ErrStreamTruncated — and both count the one complete record and its wire
// bytes. The Fetcher's ledger also files the damage: a framing resync and the
// bytes thrown away.
func TestClientsReadDamagedStreams(t *testing.T) {
	p := rlnc.Params{BlockCount: 4, BlockSize: 64}
	media := testMedia(t, p.SegmentSize(), 71)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := FrameRecord(rlnc.NewEncoder(obj.Segments[0], rand.New(rand.NewSource(72))).NextBlock(), ModeDense)
	if err != nil {
		t.Fatal(err)
	}
	opening := appendSessionHeader(nil, handshake{hdr: SessionInfo{Params: p, Segments: 1, Length: int64(len(media))}})
	badPrefix := bytes.Clone(rec)
	badPrefix[3]++
	cut := len(rec) - 7

	for _, tc := range []struct {
		name      string
		stream    []byte
		want      error
		wire      int   // the complete record, as both clients count it
		discarded int64 // what the Fetcher throws away
		resyncs   int
	}{
		{"bad length prefix", bytes.Join([][]byte{opening, rec, badPrefix}, nil), ErrRecordLength, len(rec), 4, 1},
		{"record cut short", bytes.Join([][]byte{opening, rec, rec[:cut]}, nil), ErrStreamTruncated, len(rec), int64(cut), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			conn := &streamConn{}
			conn.r.Reset(tc.stream)
			cfg := DefaultFetcherConfig()
			cfg.MaxAttempts = 1
			res, err := newTestFetcher(t, func(context.Context) (net.Conn, error) { return conn, nil }, cfg).Fetch(context.Background())
			if !errors.Is(err, tc.want) {
				t.Fatalf("fetch: %v, want %v", err, tc.want)
			}
			st := res.Stats
			if st.Records != 1 || st.Bytes != int64(tc.wire) || st.BytesDiscarded != tc.discarded || st.FramingResyncs != tc.resyncs {
				t.Fatalf("fetch ledger: %d records, %d bytes, %d discarded, %d resyncs; want 1, %d, %d, %d",
					st.Records, st.Bytes, st.BytesDiscarded, st.FramingResyncs, tc.wire, tc.discarded, tc.resyncs)
			}

			conn.r.Reset(tc.stream)
			rc, err := NewRawClient(conn)
			if err != nil {
				t.Fatal(err)
			}
			if n, err := rc.Next(); err != nil || n != tc.wire {
				t.Fatalf("first record: %d wire bytes, %v; want %d", n, err, tc.wire)
			}
			if _, err := rc.Next(); !errors.Is(err, tc.want) {
				t.Fatalf("raw client: %v, want %v", err, tc.want)
			}
			if rc.Records() != 1 || rc.Bytes() != int64(tc.wire) {
				t.Fatalf("raw ledger: %d records, %d bytes; want 1, %d", rc.Records(), rc.Bytes(), tc.wire)
			}
		})
	}
}
