package netio

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"

	"extremenc/internal/rlnc"
)

// TestWireModeParse pins the flag-value spelling both ways.
func TestWireModeParse(t *testing.T) {
	for _, m := range []WireMode{ModeDense, ModeSystematic} {
		got, err := ParseWireMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseWireMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseWireMode("turbo"); err == nil {
		t.Fatal("unknown mode string accepted")
	}
}

// TestHandshakeCarriesMode: the session header round-trips the mode and
// rejects modes this client does not speak.
func TestHandshakeCarriesMode(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	for _, m := range []WireMode{ModeDense, ModeSystematic} {
		var buf bytes.Buffer
		h := SessionInfo{Params: p, Segments: 2, Length: 999, Mode: m}
		if _, err := buf.Write(appendSessionHeader(nil, handshake{hdr: h})); err != nil {
			t.Fatal(err)
		}
		hs, err := readHandshake(&buf)
		if err != nil {
			t.Fatalf("mode %v: %v", m, err)
		}
		if hs.hdr != h {
			t.Fatalf("header round trip: got %+v, want %+v", hs.hdr, h)
		}
	}
	var buf bytes.Buffer
	if _, err := buf.Write(appendSessionHeader(nil, handshake{hdr: SessionInfo{Params: p, Segments: 1, Mode: WireMode(7)}})); err != nil {
		t.Fatal(err)
	}
	if _, err := readHandshake(&buf); err == nil {
		t.Fatal("unknown wire mode accepted in handshake")
	}
}

// TestNewServerRejectsUnknownMode: the mode is validated at construction, not
// first handshake.
func TestNewServerRejectsUnknownMode(t *testing.T) {
	p := rlnc.Params{BlockCount: 4, BlockSize: 32}
	cfg := DefaultServerConfig()
	cfg.Mode = WireMode(9)
	if _, err := NewServerFromConfig(testMedia(t, p.SegmentSize(), 3), p, cfg); err == nil {
		t.Fatal("NewServerFromConfig accepted an unknown wire mode")
	}
}

// TestSystematicFetchOverPipe runs the one-shot path in systematic mode: the
// stream interleaves XNC2 and XNC1 records and the client must still recover
// the object byte-identically.
func TestSystematicFetchOverPipe(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 512}
	media := testMedia(t, 3*p.SegmentSize()-99, 21)
	cfg := DefaultServerConfig()
	cfg.Mode = ModeSystematic
	srv, err := NewServerFromConfig(media, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Mode() != ModeSystematic {
		t.Fatalf("server mode = %v", srv.Mode())
	}

	l := startPipeServer(t, srv)
	fcfg := DefaultFetcherConfig()
	fcfg.MaxAttempts = 1
	f := newTestFetcher(t, func(context.Context) (net.Conn, error) { return l.Dial(), nil }, fcfg)
	res, err := f.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != ModeSystematic {
		t.Fatalf("negotiated mode = %v, want systematic", res.Mode)
	}
	if !bytes.Equal(res.Payload, media) {
		t.Fatal("systematic fetch payload differs")
	}
	if res.Stats.Corrupt != 0 || res.Stats.Malformed != 0 {
		t.Fatalf("clean systematic pipe rejected records: %+v", res.Stats)
	}
}

// TestModeDifferentialSessionPath serves the same media through the shared
// encoder pump in both modes and demands byte-identical results — the
// systematic + XOR session is an optimization of the wire discipline, never
// of the recovered bytes.
func TestModeDifferentialSessionPath(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 256}
	media := testMedia(t, 3*p.SegmentSize()-41, 22)

	fetchVia := func(mode WireMode) []byte {
		cfg := DefaultServerConfig()
		cfg.Mode = mode
		cfg.Seed = 5
		srv, err := NewServerFromConfig(media, p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Skipf("loopback listen unavailable: %v", err)
		}
		defer l.Close()
		go srv.Serve(context.Background(), l)
		defer srv.Shutdown()

		conn, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fcfg := DefaultFetcherConfig()
		fcfg.MaxAttempts = 1
		f := newTestFetcher(t, func(context.Context) (net.Conn, error) { return conn, nil }, fcfg)
		res, err := f.Fetch(context.Background())
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		if res.Mode != mode {
			t.Fatalf("negotiated mode = %v, want %v", res.Mode, mode)
		}
		if snap := srv.Snapshot(); snap.Mode != mode {
			t.Fatalf("snapshot mode = %v, want %v", snap.Mode, mode)
		}
		return res.Payload
	}

	dense := fetchVia(ModeDense)
	systematic := fetchVia(ModeSystematic)
	if !bytes.Equal(dense, media) {
		t.Fatal("dense session payload differs from media")
	}
	if !bytes.Equal(systematic, dense) {
		t.Fatal("systematic and dense sessions are not byte-identical")
	}
}

// TestSessionInfoValidate: Validate rejects what the handshake parser would —
// the parser calls it — including a negative segment
// count, which the old marshal-and-reparse check let through as 2^32 − 1, and
// a segment count that is not the one rlnc.Split makes of the length.
func TestSessionInfoValidate(t *testing.T) {
	ok := SessionInfo{Params: rlnc.Params{BlockCount: 8, BlockSize: 64}, Segments: 2, Length: 999, Mode: ModeSystematic}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid info rejected: %v", err)
	}
	for name, mutate := range map[string]func(*SessionInfo){
		"zero block count":  func(si *SessionInfo) { si.Params.BlockCount = 0 },
		"no segments":       func(si *SessionInfo) { si.Segments = 0 },
		"negative segments": func(si *SessionInfo) { si.Segments = -1 },
		"negative length":   func(si *SessionInfo) { si.Length = -1 },
		"unknown mode":      func(si *SessionInfo) { si.Mode = WireMode(7) },
		"too few segments":  func(si *SessionInfo) { si.Segments = 1 },
		"too many segments": func(si *SessionInfo) { si.Segments = 3 },
		"length past 2^32 segments": func(si *SessionInfo) {
			si.Segments, si.Length = 1<<32-1, 1<<62
		},
	} {
		si := ok
		mutate(&si)
		if err := si.Validate(); !errors.Is(err, ErrBadHandshake) {
			t.Errorf("%s: Validate() = %v, want ErrBadHandshake", name, err)
		}
	}
}
