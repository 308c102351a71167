package netio

import (
	"bytes"
	"context"
	"net"
	"strings"
	"testing"
	"time"

	"extremenc/internal/rlnc"
)

// TestServerConfigValidate pins exactly what validation rejects — unknown
// wire modes; numeric fields outside their range are normalization's job,
// not errors — and that NewServerFromConfig gives
// the same verdict as Validate.
func TestServerConfigValidate(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize()-7, 61)
	cases := []struct {
		name    string
		mutate  func(*ServerConfig)
		wantErr string
	}{
		{"default", func(c *ServerConfig) {}, ""},
		{"zero value", func(c *ServerConfig) { *c = ServerConfig{} }, ""},
		{"bad wire mode", func(c *ServerConfig) { c.Mode = WireMode(9) }, "wire mode"},
		{"negative queue ok", func(c *ServerConfig) { c.QueueDepth = -5 }, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultServerConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			_, ctorErr := NewServerFromConfig(media, p, cfg)
			if tc.wantErr == "" {
				if err != nil || ctorErr != nil {
					t.Fatalf("Validate() = %v, NewServerFromConfig = %v, want nil", err, ctorErr)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
			if ctorErr == nil {
				t.Fatal("NewServerFromConfig accepted a config Validate rejects")
			}
		})
	}
}

// TestServerRefusesTooManySegments: media that would split into more segments
// than a session header may declare is refused at construction, in either
// mode, and media at the bound is served.
func TestServerRefusesTooManySegments(t *testing.T) {
	p := rlnc.Params{BlockCount: 1, BlockSize: 1}
	for _, mode := range []WireMode{ModeDense, ModeSystematic} {
		cfg := DefaultServerConfig()
		cfg.Mode = mode
		if _, err := NewServerFromConfig(make([]byte, maxSegments+1), p, cfg); err == nil || !strings.Contains(err.Error(), "segments") {
			t.Fatalf("%v: %d segments: %v, want a refusal", mode, maxSegments+1, err)
		}
		srv, err := NewServerFromConfig(make([]byte, maxSegments), p, cfg)
		if err != nil {
			t.Fatalf("%v: %d segments: %v", mode, maxSegments, err)
		}
		srv.Shutdown()
	}
}

// TestServerConfigNormalized pins the zero-to-default resolution, and the
// pump's round size, which no field sets: a quarter generation, at least 4.
func TestServerConfigNormalized(t *testing.T) {
	got := (ServerConfig{QueueDepth: 0, Seed: 0}).normalized()
	if got.QueueDepth != 64 {
		t.Fatalf("QueueDepth 0 -> %d, want 64", got.QueueDepth)
	}
	if got.Seed != 1 {
		t.Fatalf("Seed 0 -> %d, want 1", got.Seed)
	}
	if (ServerConfig{QueueDepth: -3}).normalized().QueueDepth != 1 {
		t.Fatal("negative QueueDepth must clamp to 1")
	}
	// Meaningful zeros survive normalization untouched.
	z := (ServerConfig{}).normalized()
	if z.WriteDeadline != 0 || z.MaxSessions != 0 {
		t.Fatalf("meaningful zeros were defaulted: %+v", z)
	}
	for n, want := range map[int]int{8: 4, 16: 4, 64: 16} {
		p := rlnc.Params{BlockCount: n, BlockSize: 64}
		srv, err := NewServerFromConfig(testMedia(t, p.SegmentSize(), 62), p, DefaultServerConfig())
		if err != nil {
			t.Fatal(err)
		}
		if srv.batch != want {
			t.Errorf("n=%d: rounds of %d records, want %d", n, srv.batch, want)
		}
		srv.Shutdown()
	}
}

// TestFetcherConfigValidate pins the fetcher-side rejections, and that
// NewFetcherFromConfig gives the same verdict as Validate: a rejected config
// builds no fetcher, an accepted one fetches end to end.
func TestFetcherConfigValidate(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	media := testMedia(t, 2*p.SegmentSize()-7, 61)
	srv, err := NewServerFromConfig(media, p, DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := startPipeServer(t, srv)
	dial := func(context.Context) (net.Conn, error) { return l.Dial(), nil }
	cases := []struct {
		name    string
		mutate  func(*FetcherConfig)
		wantErr string
	}{
		{"default", func(c *FetcherConfig) {}, ""},
		{"zero value", func(c *FetcherConfig) { *c = FetcherConfig{} }, ""},
		{"negative attempts", func(c *FetcherConfig) { c.MaxAttempts = -1 }, "attempt budget"},
		{"negative backoff", func(c *FetcherConfig) { c.BackoffBase = -time.Second }, "negative backoff"},
		{"inverted backoff", func(c *FetcherConfig) {
			c.BackoffBase = 3 * time.Second
			c.BackoffMax = time.Second
		}, "exceeds max"},
		{"sink with resume state", func(c *FetcherConfig) {
			c.Sink = recoderBank{}
			c.ResumeState = []byte(stateMagic)
		}, "sink fetch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultFetcherConfig()
			tc.mutate(&cfg)
			err := cfg.Validate()
			f, ctorErr := NewFetcherFromConfig(dial, cfg)
			if tc.wantErr == "" {
				if err != nil || ctorErr != nil {
					t.Fatalf("Validate() = %v, NewFetcherFromConfig = %v, want nil", err, ctorErr)
				}
				res, err := f.Fetch(context.Background())
				if err != nil {
					t.Fatalf("config-built fetcher: %v", err)
				}
				if !bytes.Equal(res.Payload, media) {
					t.Fatal("config-built fetcher payload differs")
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantErr)
			}
			if ctorErr == nil {
				t.Fatal("NewFetcherFromConfig accepted a config Validate rejects")
			}
		})
	}
}
