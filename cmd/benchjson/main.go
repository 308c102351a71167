// Command benchjson converts `go test -bench` text output (stdin) into a
// stable JSON document (stdout), so benchmark runs can be committed and
// diffed as machine-readable artifacts. It also derives the headline
// host-codec ratios — most importantly the tiled batch encoder's speedup
// over the single-block path — when the relevant benchmarks are present,
// and the serving-capacity peak (best aggregate throughput at the deepest
// session count) from `nc load`'s BenchmarkServeLoad ladder.
//
// A benchmark name that appears more than once on stdin (-count N, or several
// runs concatenated) keeps its fastest run.
//
// With -check it additionally compares the fresh run's derived ratios
// against a committed artifact and exits non-zero when a gate regressed.
// Only relative keys (speedup multiples `_x` and percentages `_pct`) are
// gated: absolute MB/s numbers are machine-specific, ratios travel.
//
// Usage:
//
//	go test -run '^$' -bench 'BenchmarkMulAddLadder|BenchmarkEncodeBatch|BenchmarkDecodeLadder' \
//	    -benchtime 100x ./internal/gf256/ ./internal/rlnc/ | go run ./cmd/benchjson
//	... | go run ./cmd/benchjson -check BENCH_host.json -tolerance 0.5
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line. Extra holds every value/unit pair
// beyond the standard ns/op and MB/s columns, keyed by unit — the serving
// ladder reports per-wave record latencies this way (`p50-ns`, `p99-ns`,
// `shed-pct`).
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int64              `json:"runs"`
	NsPerOp float64            `json:"ns_per_op"`
	MBPerS  float64            `json:"mb_per_s,omitempty"`
	Extra   map[string]float64 `json:"extra,omitempty"`
}

// Document is the emitted artifact.
type Document struct {
	GOOS       string             `json:"goos,omitempty"`
	GOARCH     string             `json:"goarch,omitempty"`
	CPU        string             `json:"cpu,omitempty"`
	Packages   []string           `json:"packages,omitempty"`
	Benchmarks []Benchmark        `json:"benchmarks"`
	Derived    map[string]float64 `json:"derived,omitempty"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	checkPath := fs.String("check", "", "committed artifact to gate the fresh run's derived ratios against")
	tolerance := fs.Float64("tolerance", 0.5, "allowed fractional slack below a committed ratio before -check fails")
	if err := fs.Parse(args); err != nil {
		return err
	}

	doc, err := parse(bufio.NewScanner(stdin))
	if err != nil {
		return err
	}
	derive(doc)
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}

	if *checkPath == "" {
		return nil
	}
	raw, err := os.ReadFile(*checkPath)
	if err != nil {
		return err
	}
	var committed Document
	if err := json.Unmarshal(raw, &committed); err != nil {
		return fmt.Errorf("%s: %w", *checkPath, err)
	}
	failures := check(doc, &committed, *tolerance)
	if len(failures) > 0 {
		return fmt.Errorf("derived-ratio gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func parse(sc *bufio.Scanner) (*Document, error) {
	doc := &Document{}
	index := map[string]int{} // benchmark name → position in doc.Benchmarks
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GOOS = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.GOARCH = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			if pkg := strings.TrimPrefix(line, "pkg: "); !slices.Contains(doc.Packages, pkg) {
				doc.Packages = append(doc.Packages, pkg)
			}
		case strings.HasPrefix(line, "Benchmark"):
			b, ok := parseLine(line)
			if !ok {
				continue
			}
			// A name that repeats (-count N, or several `go test` rounds
			// concatenated) keeps its fastest run: on a shared host the
			// minimum is the measurement least disturbed by the neighbours,
			// and rounds spread over time let every rung see a quiet moment.
			if i, seen := index[b.Name]; seen {
				if b.NsPerOp < doc.Benchmarks[i].NsPerOp {
					doc.Benchmarks[i] = b
				}
				continue
			}
			index[b.Name] = len(doc.Benchmarks)
			doc.Benchmarks = append(doc.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines on stdin")
	}
	return doc, nil
}

// parseLine handles the standard result shape:
//
//	BenchmarkName-8   123   4567 ns/op   89.01 MB/s  [extra columns ignored]
func parseLine(line string) (Benchmark, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Benchmark{}, false
	}
	name := f[0]
	// Strip the -GOMAXPROCS suffix so names are stable across machines.
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	runs, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	ns, err := strconv.ParseFloat(f[2], 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: name, Runs: runs, NsPerOp: ns}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "MB/s":
			b.MBPerS = v
		default:
			if b.Extra == nil {
				b.Extra = map[string]float64{}
			}
			b.Extra[unit] = v
		}
	}
	return b, true
}

// derive records the headline ratios the docs and acceptance criteria cite.
// Each entry is a percentage speedup of the second benchmark over the first,
// computed from ns/op.
func derive(doc *Document) {
	byName := map[string]Benchmark{}
	for _, b := range doc.Benchmarks {
		byName[b.Name] = b
	}
	// Each derived ratio is next over base, as a percentage gain (`_pct`) or
	// a multiple (`_x`). The multiples: each SIMD rung over the rung below it;
	// each fused shape over "single", the widest single-source SIMD rung the
	// run measured (the one the fused shapes' entry points dispatch to) —
	// ladder throughput counts source bytes per destination, so that ratio is
	// the fused body's gain over composing single-source passes, which must
	// stay ≥ 1.15× for a body to earn its keep (fused2 and fused4 have bodies
	// on the GFNI rung only and read ~1× on an AVX2 host); and the GF(2)
	// repair-encode rung over the widest GF(2^8) rung at the same k (3.2×
	// against the table-gather kernels; the SIMD rungs closed most of that
	// gap, and what is gated now is that XOR stays ahead).
	single := "BenchmarkMulAddLadder/avx2/k=4096"
	if _, ok := byName["BenchmarkMulAddLadder/gfni/k=4096"]; ok {
		single = "BenchmarkMulAddLadder/gfni/k=4096"
	}
	ratios := [][3]string{
		{"encode_batch_over_single_ref_pct", "BenchmarkEncodeBatch/single-ref", "BenchmarkEncodeBatch/batch"},
		{"encode_pool_full_block_over_single_ref_pct", "BenchmarkEncodeBatch/single-ref", "BenchmarkEncodeBatch/pool-full-block"},
		{"portable_wide_over_scalar_k4096_pct", "BenchmarkMulAddLadder/table-scalar/k=4096", "BenchmarkMulAddLadder/portable-wide/k=4096"},
		{"two_stage_over_reference_pct", "BenchmarkDecodeLadder/reference", "BenchmarkDecodeLadder/two-stage"},
		{"avx2_over_portable_k4096_x", "BenchmarkMulAddLadder/portable-wide/k=4096", "BenchmarkMulAddLadder/avx2/k=4096"},
		{"gfni_over_avx2_k4096_x", "BenchmarkMulAddLadder/avx2/k=4096", "BenchmarkMulAddLadder/gfni/k=4096"},
		{"fused2_over_single_k4096_x", single, "BenchmarkMulAddLadder/fused2/k=4096"},
		{"fused4_over_single_k4096_x", single, "BenchmarkMulAddLadder/fused4/k=4096"},
		{"fused4x2_over_single_k4096_x", single, "BenchmarkMulAddLadder/fused4x2/k=4096"},
		{"xor_repair_encode_over_fused4x2_k4096_x", "BenchmarkMulAddLadder/fused4x2/k=4096", "BenchmarkXorLadder/xor-repair-encode/k=4096"},
	}
	set := func(key string, v float64) {
		if doc.Derived == nil {
			doc.Derived = map[string]float64{}
		}
		doc.Derived[key] = v
	}
	for _, r := range ratios {
		base, okB := byName[r[1]]
		next, okN := byName[r[2]]
		if !okB || !okN || next.NsPerOp == 0 {
			continue
		}
		// Throughput-based where available: fused rungs process more bytes
		// per op, so ns/op alone would mislead.
		mult := base.NsPerOp / next.NsPerOp
		if base.MBPerS > 0 && next.MBPerS > 0 {
			mult = next.MBPerS / base.MBPerS
		}
		if strings.HasSuffix(r[0], "_pct") {
			set(r[0], (mult-1)*100)
		} else {
			set(r[0], mult)
		}
	}

	// Blended systematic+XOR session recovery rates at simulated loss,
	// surfaced as headline numbers beside the ratio they contextualize.
	for key, name := range map[string]string{
		"xor_blended_loss_0_1pct_mb_s": "BenchmarkXorLadder/blended/loss=0.1pct",
		"xor_blended_loss_1pct_mb_s":   "BenchmarkXorLadder/blended/loss=1pct",
		"xor_blended_loss_5pct_mb_s":   "BenchmarkXorLadder/blended/loss=5pct",
	} {
		if b, ok := byName[name]; ok && b.MBPerS > 0 {
			set(key, b.MBPerS)
		}
	}

	deriveServe(set, byName)
}

// deriveServe records the serving-capacity peak from `nc load`'s ladder: the
// deepest dense wave's aggregate MB/s, with its depth and p99 record latency.
// All three are absolutes, so none is gated by -check; they ride along for the
// docs.
func deriveServe(set func(string, float64), byName map[string]Benchmark) {
	deepest := 0
	var best Benchmark
	for name, b := range byName {
		rest, ok := strings.CutPrefix(name, "BenchmarkServeLoad/")
		if !ok {
			continue
		}
		// Dense waves are named sessions=N; the systematic-wire wave carries a
		// second element and is not part of the peak.
		var sessions int
		if strings.Contains(rest, "/") {
			continue
		}
		if _, err := fmt.Sscanf(rest, "sessions=%d", &sessions); err != nil {
			continue
		}
		if sessions > deepest {
			deepest, best = sessions, b
		}
	}
	if best.MBPerS <= 0 {
		return
	}
	set("serve_peak_sessions", float64(deepest))
	set("serve_peak_agg_mb_s", best.MBPerS)
	if p99, ok := best.Extra["p99-ns"]; ok {
		set("serve_peak_p99_ms", p99/1e6)
	}
}

// check gates fresh derived ratios against committed ones. Every relative
// committed key (`_x` speedup multiple or `_pct` percentage) must be present
// in the fresh run — a gate that silently stops being measured is itself a
// regression — and must not fall below committed·(1−tolerance). Percentages
// are compared as speedup multiples (1 + pct/100) so a near-zero committed
// percentage doesn't explode the relative comparison; absolute `_mb_s` keys
// are skipped entirely. The returned slice holds one message per violation.
func check(fresh, committed *Document, tolerance float64) []string {
	var failures []string
	keys := make([]string, 0, len(committed.Derived))
	for key := range committed.Derived {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		want := committed.Derived[key]
		var wantMult, floor, gotMult float64
		switch {
		case strings.HasSuffix(key, "_x"):
			wantMult = want
		case strings.HasSuffix(key, "_pct"):
			wantMult = 1 + want/100
		default:
			continue
		}
		if wantMult <= 0 {
			continue
		}
		got, ok := fresh.Derived[key]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from fresh run (committed %.3g)", key, want))
			continue
		}
		if strings.HasSuffix(key, "_x") {
			gotMult = got
		} else {
			gotMult = 1 + got/100
		}
		floor = wantMult * (1 - tolerance)
		if gotMult < floor {
			failures = append(failures, fmt.Sprintf("%s: fresh %.3g below floor %.3g (committed %.3g, tolerance %.0f%%)",
				key, got, floor, want, tolerance*100))
		}
	}
	return failures
}
