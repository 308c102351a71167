package main

import (
	"bytes"
	"context"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/netio"
	"extremenc/internal/rlnc"
)

func TestUsageErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no subcommand accepted")
	}
	if err := run([]string{"bogus"}); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := run([]string{"serve"}); err == nil {
		t.Fatal("serve without -in accepted")
	}
	if err := run([]string{"fetch"}); err == nil {
		t.Fatal("fetch without -out accepted")
	}
	if err := run([]string{"smoke", "-bogus"}); err == nil {
		t.Fatal("bad smoke flag accepted")
	}
	if err := run([]string{"serve", "-in", "/nonexistent"}); err == nil {
		t.Fatal("missing media accepted")
	}
	if err := run([]string{"smoke", "-mode", "turbo"}); err == nil {
		t.Fatal("unknown wire mode accepted")
	}
}

// TestXorSmokeSubcommand runs the systematic + XOR end-to-end gate
// in-process (the same path as `make xor-smoke`).
func TestXorSmokeSubcommand(t *testing.T) {
	if err := run([]string{"xor-smoke", "-size", "60000"}); err != nil {
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
		done <- run([]string{"fetch", "-addr", l.Addr().String(), "-out", out})
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
		"-attempts", "1", "-resume", state})
	if err == nil {
		t.Fatal("one-attempt fetch through a resetting link succeeded")
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("failed fetch saved no resume state: %v", err)
	}

	done := make(chan error, 1)
	go func() {
		done <- run([]string{"fetch", "-addr", inner.Addr().String(), "-out", out,
			"-attempts", "0", "-backoff", "1ms", "-resume", state})
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

// TestSmokeSubcommand runs the CI smoke gate end to end in-process.
func TestSmokeSubcommand(t *testing.T) {
	if err := run([]string{"smoke", "-clients", "3", "-size", "60000"}); err != nil {
		t.Fatal(err)
	}
}
