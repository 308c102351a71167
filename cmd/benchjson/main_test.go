package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newScanner(s string) *bufio.Scanner {
	return bufio.NewScanner(strings.NewReader(s))
}

const benchText = `goos: linux
goarch: amd64
pkg: extremenc/internal/gf256
cpu: Test CPU
BenchmarkMulAddLadder/table-scalar/k=4096-8   1000   1000 ns/op   1000.00 MB/s
BenchmarkMulAddLadder/portable-wide/k=4096-8  1000    800 ns/op   1250.00 MB/s
BenchmarkMulAddLadder/avx2/k=4096-8           1000     80 ns/op  12500.00 MB/s
BenchmarkMulAddLadder/fused4x2/k=4096-8       1000    500 ns/op  17000.00 MB/s
BenchmarkXorLadder/xor-repair-encode/k=4096-8 1000    100 ns/op  59500.00 MB/s
BenchmarkMulAddLadder/avx2/k=4096-8           1000    160 ns/op   6250.00 MB/s
BenchmarkDecodeLadder/reference-8             100  2000000 ns/op   262.00 MB/s
BenchmarkDecodeLadder/two-stage-8             100  1000000 ns/op   524.00 MB/s
garbage line that is not a benchmark
BenchmarkBroken   not-a-number   10 ns/op
`

func parseText(t *testing.T, text string) *Document {
	t.Helper()
	doc, err := parse(newScanner(text))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestParseAndDerive(t *testing.T) {
	doc := parseText(t, benchText)
	if len(doc.Benchmarks) != 7 {
		t.Fatalf("parsed %d benchmarks, want 7", len(doc.Benchmarks))
	}
	if doc.GOOS != "linux" || doc.CPU != "Test CPU" {
		t.Fatalf("host fields: %q %q", doc.GOOS, doc.CPU)
	}
	// The repeated avx2 line is a slower rerun: the fastest run is kept.
	if b := doc.Benchmarks[2]; b.Name != "BenchmarkMulAddLadder/avx2/k=4096" || b.NsPerOp != 80 {
		t.Fatalf("repeated name did not keep its fastest run: %+v", b)
	}
	if doc.Benchmarks[0].Name != "BenchmarkMulAddLadder/table-scalar/k=4096" {
		t.Fatalf("GOMAXPROCS suffix not stripped: %q", doc.Benchmarks[0].Name)
	}
	derive(doc)
	if got := doc.Derived["portable_wide_over_scalar_k4096_pct"]; got < 24 || got > 26 {
		t.Fatalf("portable-wide pct = %v, want ~25", got)
	}
	if got := doc.Derived["avx2_over_portable_k4096_x"]; got < 9.9 || got > 10.1 {
		t.Fatalf("avx2 multiple = %v, want ~10", got)
	}
	// No gfni rung in this run: the fused shapes are measured against avx2.
	if got := doc.Derived["fused4x2_over_single_k4096_x"]; got < 1.35 || got > 1.37 {
		t.Fatalf("fused4x2 multiple = %v, want ~1.36", got)
	}
	for _, key := range []string{"fused4_over_single_k4096_x", "gfni_over_avx2_k4096_x"} {
		if _, ok := doc.Derived[key]; ok {
			t.Fatalf("%s derived without its rung", key)
		}
	}
	if got := doc.Derived["two_stage_over_reference_pct"]; got < 99 || got > 101 {
		t.Fatalf("two-stage pct = %v, want ~100", got)
	}
	// With a gfni rung the fused shapes are measured against it instead.
	wide := parseText(t, benchText+"BenchmarkMulAddLadder/gfni/k=4096-8 1000 40 ns/op 25000.00 MB/s\n")
	derive(wide)
	if got := wide.Derived["gfni_over_avx2_k4096_x"]; got < 1.99 || got > 2.01 {
		t.Fatalf("gfni multiple = %v, want ~2", got)
	}
	if got := wide.Derived["fused4x2_over_single_k4096_x"]; got < 0.67 || got > 0.69 {
		t.Fatalf("fused4x2 multiple over the gfni rung = %v, want ~0.68", got)
	}
	if got := doc.Derived["xor_repair_encode_over_fused4x2_k4096_x"]; got < 3.4 || got > 3.6 {
		t.Fatalf("xor multiple = %v, want ~3.5", got)
	}
}

const serveText = `goos: linux
pkg: extremenc/cmd/nc
BenchmarkServeLoad/shards=1/sessions=1024     1  800000 ns/op  190.00 MB/s  30000 p50-ns  700000 p99-ns  0.50 shed-pct
BenchmarkServeLoad/shards=2/sessions=4096     1  700000 ns/op  150.00 MB/s  35000 p50-ns  750000 p99-ns  0.75 shed-pct
BenchmarkServeLoad/shards=4/sessions=4096     1  600000 ns/op  176.00 MB/s  30000 p50-ns  650000 p99-ns  0.60 shed-pct
BenchmarkServeLoad/shards=4/sessions=4096/wire=systematic  1  600000 ns/op  200.00 MB/s  30000 p50-ns  640000 p99-ns  0.60 shed-pct
`

// TestDeriveServe pins the serving-ladder schema: extra value/unit columns
// land in Extra, and the peak keys describe the best dense wave at the
// deepest session count (4096 here — neither the faster but shallower
// 1024-session wave nor the systematic-wire wave may be taken for the peak).
func TestDeriveServe(t *testing.T) {
	doc := parseText(t, serveText)
	if len(doc.Benchmarks) != 4 {
		t.Fatalf("parsed %d serve waves, want 4", len(doc.Benchmarks))
	}
	b := doc.Benchmarks[0]
	if b.Extra["p99-ns"] != 700000 || b.Extra["p50-ns"] != 30000 || b.Extra["shed-pct"] != 0.5 {
		t.Fatalf("extra columns not captured: %+v", b.Extra)
	}
	derive(doc)
	if doc.Derived["serve_peak_sessions"] != 4096 {
		t.Fatalf("serve_peak_sessions = %v, want 4096", doc.Derived["serve_peak_sessions"])
	}
	if doc.Derived["serve_peak_agg_mb_s"] != 176 {
		t.Fatalf("serve_peak_agg_mb_s = %v, want 176", doc.Derived["serve_peak_agg_mb_s"])
	}
	if doc.Derived["serve_peak_p99_ms"] != 0.65 {
		t.Fatalf("serve_peak_p99_ms = %v, want 0.65", doc.Derived["serve_peak_p99_ms"])
	}
	// Every serve key is an absolute: none may end in a gated suffix.
	for key := range doc.Derived {
		if strings.HasPrefix(key, "serve_") && (strings.HasSuffix(key, "_x") || strings.HasSuffix(key, "_pct")) {
			t.Fatalf("serve key %q would be gated by -check", key)
		}
	}

	// No dense serve wave, no serve keys.
	none := parseText(t, strings.ReplaceAll(serveText, "BenchmarkServeLoad/shards", "BenchmarkSomethingElse/shards"))
	derive(none)
	if _, ok := none.Derived["serve_peak_agg_mb_s"]; ok {
		t.Fatal("serve peak derived without a dense serve wave")
	}
}

func TestCheckGates(t *testing.T) {
	fresh := parseText(t, benchText)
	derive(fresh)
	committed := &Document{Derived: map[string]float64{
		"xor_repair_encode_over_fused4x2_k4096_x": 3.2,
		"portable_wide_over_scalar_k4096_pct":     22,
		"xor_blended_loss_1pct_mb_s":              99999, // absolute: never gated
	}}

	if fails := check(fresh, committed, 0.25); len(fails) != 0 {
		t.Fatalf("healthy run failed the gate: %v", fails)
	}

	// A fresh ratio far below the committed one trips the gate.
	committed.Derived["xor_repair_encode_over_fused4x2_k4096_x"] = 50
	fails := check(fresh, committed, 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "xor_repair_encode") {
		t.Fatalf("regression not caught: %v", fails)
	}

	// A committed ratio key missing from the fresh run is a failure too.
	committed.Derived["xor_repair_encode_over_fused4x2_k4096_x"] = 3.2
	committed.Derived["vanished_gate_x"] = 2
	fails = check(fresh, committed, 0.25)
	if len(fails) != 1 || !strings.Contains(fails[0], "vanished_gate_x: missing") {
		t.Fatalf("missing key not caught: %v", fails)
	}
}

func TestRunCheckMode(t *testing.T) {
	dir := t.TempDir()
	artifact := filepath.Join(dir, "BENCH_host.json")

	// Commit an artifact from one run, then re-check the same text: a
	// byte-identical rerun always passes its own gate.
	var out bytes.Buffer
	if err := run(nil, strings.NewReader(benchText), &out); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(artifact, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("emitted artifact is not valid JSON: %v", err)
	}
	if err := run([]string{"-check", artifact}, strings.NewReader(benchText), &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}

	// Degrade the fresh XOR rung 10×: the gate must fail even at a wide
	// tolerance, and pass when the tolerance admits anything.
	degraded := strings.Replace(benchText, "59500.00", "5950.00", 1)
	err := run([]string{"-check", artifact, "-tolerance", "0.5"}, strings.NewReader(degraded), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "derived-ratio gate failed") {
		t.Fatalf("degraded run passed the gate: %v", err)
	}
	if err := run([]string{"-check", artifact, "-tolerance", "0.99"}, strings.NewReader(degraded), &bytes.Buffer{}); err != nil {
		t.Fatalf("0.99 tolerance still failed: %v", err)
	}

	if err := run([]string{"-check", filepath.Join(dir, "nope.json")}, strings.NewReader(benchText), &bytes.Buffer{}); err == nil {
		t.Fatal("missing artifact accepted")
	}
	if err := run(nil, strings.NewReader("no benchmarks here\n"), &bytes.Buffer{}); err == nil {
		t.Fatal("empty input accepted")
	}
}
