package main

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/netio"
	"extremenc/internal/rlnc"
)

// TestUsageErrors: serve, fetch and smoke refuse a bad invocation before
// they serve or dial (load and mesh have TestRunRejectsBadFlags and
// TestRunErrors).
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"serve"},                        // no -in
		{"serve", "-in", "/nonexistent"}, // missing media
		{"serve", "-brownout", "10ms"},   // the retired ladder's flag is unknown
		{"fetch"},                        // no -out
		{"smoke", "-bogus"},              // unknown flag
		{"smoke", "-mode", "turbo"},      // unknown wire mode
		{"smoke", "sideways"},            // unknown gate
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}

// TestXorSmokeSubcommand runs the systematic + XOR end-to-end gate
// in-process (the same path as `make xor-smoke`).
func TestXorSmokeSubcommand(t *testing.T) {
	if err := run([]string{"smoke", "xor", "-size", "60000"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestFetchAgainstInProcessServer runs the fetch subcommand against a
// server started via the library (the serve subcommand blocks forever, so
// it is covered by its flag-validation paths above).
func TestFetchAgainstInProcessServer(t *testing.T) {
	media := make([]byte, 50000)
	rand.New(rand.NewSource(3)).Read(media)
	srv, err := netio.NewServerFromConfig(media, rlnc.Params{BlockCount: 8, BlockSize: 512}, netio.DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	go srv.Serve(context.Background(), l)
	defer func() {
		srv.Shutdown()
		l.Close()
	}()

	out := filepath.Join(t.TempDir(), "out.bin")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"fetch", "-addr", l.Addr().String(), "-out", out}, io.Discard)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("fetch did not complete")
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, media) {
		t.Fatal("fetched media differs")
	}
}

// TestFetchResumeFlow exercises the fetch subcommand's degradation path: a
// single-attempt fetch through a resetting link fails but saves its decoder
// rank to the -resume file, and a second unlimited-attempt invocation loads
// it, finishes, and removes it.
func TestFetchResumeFlow(t *testing.T) {
	media := make([]byte, 50000)
	rand.New(rand.NewSource(4)).Read(media)
	srv, err := netio.NewServerFromConfig(media, rlnc.Params{BlockCount: 8, BlockSize: 512}, netio.DefaultServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback listen unavailable: %v", err)
	}
	// Reset every server session after ~20–40KB: less than the object, so a
	// one-attempt fetch can never finish.
	l := faultnet.NewListener(inner, faultnet.Config{Seed: 13, ResetEvery: 20000})
	go srv.Serve(context.Background(), l)
	defer func() {
		srv.Shutdown()
		l.Close()
	}()

	dir := t.TempDir()
	out := filepath.Join(dir, "out.bin")
	state := filepath.Join(dir, "fetch.state")
	err = run([]string{"fetch", "-addr", inner.Addr().String(), "-out", out,
		"-attempts", "1", "-resume", state}, io.Discard)
	if err == nil {
		t.Fatal("one-attempt fetch through a resetting link succeeded")
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("failed fetch saved no resume state: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"fetch", "-addr", inner.Addr().String(), "-out", out,
			"-attempts", "0", "-backoff", "1ms", "-resume", state}, io.Discard)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("resumed fetch did not complete")
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, media) {
		t.Fatal("resumed fetch media differs")
	}
	if _, err := os.Stat(state); !os.IsNotExist(err) {
		t.Fatal("resume state not removed after success")
	}
}

// TestSmokeSubcommand runs the serve and metrics gates end to end in-process,
// two gates on one invocation as `make serve-smoke metrics-smoke` would.
func TestSmokeSubcommand(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"smoke", "serve", "metrics", "-clients", "3", "-size", "60000"}, &out); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	for _, want := range []string{"smoke ok: 3 clients", "metrics-smoke ok"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("no %q in output:\n%s", want, out.String())
		}
	}
}
