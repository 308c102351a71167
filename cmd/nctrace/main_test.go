package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchGate drives the overhead gate on fixture baselines: a missing or
// keyless baseline skips the gate, a malformed one fails it, and the measured
// batch-over-single multiple passes a floor it clears and fails one it cannot.
func TestBenchGate(t *testing.T) {
	// A few iterations are enough to order "far above" and "far below".
	benchtime := flag.Lookup("test.benchtime")
	old := benchtime.Value.String()
	if err := benchtime.Value.Set("3x"); err != nil {
		t.Fatal(err)
	}
	defer benchtime.Value.Set(old) //nolint:errcheck — restoring the value it had

	dir := t.TempDir()
	fixture := func(name, doc string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct {
		name, path string
		tol        float64
		wantMsg    string // substring of the failure message; "" = gate passes
		wantOut    string // substring of what the gate prints
	}{
		{"no baseline", filepath.Join(dir, "absent.json"), 0.35, "", "bench gate skipped"},
		{"malformed", fixture("bad.json", `{"derived":`), 0.35, "unreadable", ""},
		{"no key", fixture("nokey.json", `{"derived":{"other_pct":5}}`), 0.35, "", "has no encode_batch_over_single_ref_pct"},
		{"not positive", fixture("zero.json", `{"derived":{"encode_batch_over_single_ref_pct":0}}`), 0.35, "", "bench gate skipped"},
		// Committed +1 %, tolerance 0.9: the floor is a 0.1× multiple.
		{"clears floor", fixture("low.json", `{"derived":{"encode_batch_over_single_ref_pct":1}}`), 0.9, "", "bench gate: encode batch over single-ref"},
		// Committed +10⁹ %: no encoder clears 65 % of that.
		{"below floor", fixture("high.json", `{"derived":{"encode_batch_over_single_ref_pct":1e9}}`), 0.35, "below floor", "bench gate: encode batch over single-ref"},
	} {
		var out bytes.Buffer
		msg := benchGate(tc.path, tc.tol, &out)
		if (tc.wantMsg == "") != (msg == "") || !strings.Contains(msg, tc.wantMsg) {
			t.Errorf("%s: message %q, want one containing %q", tc.name, msg, tc.wantMsg)
		}
		if !strings.Contains(out.String(), tc.wantOut) {
			t.Errorf("%s: printed %q, want it to contain %q", tc.name, out.String(), tc.wantOut)
		}
	}
	if allocs := disabledPathAllocs(); allocs != 0 {
		t.Errorf("disabled tracing path allocates %.1f per op", allocs)
	}
}
