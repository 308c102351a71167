package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestRunCleanMesh(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "mesh.json")
	summary := filepath.Join(dir, "summary.json")
	var out bytes.Buffer
	err := run([]string{"mesh",
		"-relays", "2", "-leaves", "2", "-n", "8", "-k", "128", "-size", "4083",
		"-kill", "0", "-snapshot", snap, "-summary", summary,
	}, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "mesh ok (seed 7): 1 events") {
		t.Fatalf("no completion line in output:\n%s", out.String())
	}
	raw, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	for _, key := range []string{"origin", "members", "leaves"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("snapshot missing %q:\n%s", key, raw)
		}
	}
	// The soak's promises hold for every preset.
	var verdict struct {
		OK         bool            `json:"ok"`
		LeavesDone int             `json:"leaves_done"`
		Invariants map[string]bool `json:"invariants"`
	}
	if raw, err = os.ReadFile(summary); err == nil {
		err = json.Unmarshal(raw, &verdict)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"payloads_identical": true, "rank_monotone": true, "ledgers_balanced": true, "no_goroutine_leak": true}
	if !verdict.OK || verdict.LeavesDone != 2 || !reflect.DeepEqual(verdict.Invariants, want) {
		t.Fatalf("summary %s, want ok with 2 leaves and invariants %v", raw, want)
	}
}

func TestRunChaosKill(t *testing.T) {
	var out bytes.Buffer
	// 16 segments: a relay needs dozens of pump rounds to serve a leaf, so
	// the kill at the wave's tenth record lands mid-transfer by construction.
	// (At 4 segments a relay could have written a leaf's whole object before
	// the leaves had parsed ten records, and then nothing needed remediating.)
	err := run([]string{"mesh",
		"-relays", "3", "-leaves", "3", "-n", "8", "-k", "128", "-size", "16300",
		"-chaos", "-kill", "1", "-kill-at", "10",
	}, &out)
	if err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1 kills") || strings.Contains(out.String(), " 0 remediations") {
		t.Fatalf("no kill and remediation in output:\n%s", out.String())
	}
}

// TestMakeSchedule: the schedule is a function of the seed alone, and every
// schedule — even an empty draw — carries a leaf wave, a drain and a
// slow-reader wave, or the soak would gate nothing.
func TestMakeSchedule(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		for _, events := range []int{0, 1, 12, 40} {
			a := makeSchedule(rand.New(rand.NewSource(seed)), events)
			b := makeSchedule(rand.New(rand.NewSource(seed)), events)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("seed %d, %d events: %v != %v", seed, events, a, b)
			}
			if len(a) < events || len(a) > events+3 {
				t.Fatalf("seed %d: %d events scheduled for %d asked", seed, len(a), events)
			}
			seen := map[event]bool{}
			for _, ev := range a {
				seen[ev] = true
			}
			for _, must := range []event{evLeafWave, evDrain, evSlowReaders} {
				if !seen[must] {
					t.Fatalf("seed %d, %d events: no %s in %v", seed, events, must, a)
				}
			}
		}
	}
	if a, b := makeSchedule(rand.New(rand.NewSource(1)), 12), makeSchedule(rand.New(rand.NewSource(2)), 12); reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 1 and 2 drew the same schedule: %v", a)
	}
	for ev, want := range map[event]string{evLeafWave: "leaf-wave", evDrain: "drain-restart", evSlowReaders: "slow-readers", evKill: "kill", evAsk: "ask"} {
		if ev.String() != want {
			t.Errorf("event %d prints %q, want %q", ev, ev, want)
		}
	}
}

// TestMeshPresetSchedules: each preset plays the schedule of the command it
// replaced — the soak's seeded draw (after the media, from the same stream),
// the tracing gate's slow-reader wave then leaf wave (and, since relays sweep
// what they hold whole, one asking leaf that makes a relay recode), and the
// plain mesh's one leaf wave.
func TestMeshPresetSchedules(t *testing.T) {
	soakRNG := func(seed int64, size int) *rand.Rand {
		rng := rand.New(rand.NewSource(seed))
		rng.Read(make([]byte, size))
		return rng
	}
	for _, tc := range []struct {
		preset string
		soak   bool
		trace  bool
		want   []event
	}{
		{"mesh", false, false, []event{evLeafWave}},
		{"trace", false, true, []event{evSlowReaders, evLeafWave, evAsk}},
		{"soak", true, false, makeSchedule(soakRNG(1, 28_000), 20)},
	} {
		r := meshPreset(tc.soak, tc.trace)
		if got := r.schedule(soakRNG(r.seed, r.size)); r.name() != tc.preset || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("preset %s: schedule %v, want %v", r.name(), got, tc.want)
		}
	}
}

// TestRunErrors: mesh refuses a bad invocation before it brings a mesh up.
func TestRunErrors(t *testing.T) {
	for _, args := range [][]string{
		{"mesh", "-mode", "bogus"},             // unknown wire mode
		{"mesh", "-relays", "2", "-kill", "2"}, // killing every relay
		{"mesh", "-soak", "-trace"},            // two presets
		{"mesh", "-soak", "-kill", "1"},        // a default-preset flag under -soak
		{"mesh", "-events", "3"},               // a soak flag without -soak
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}

func TestRunRejectsTooFewRelays(t *testing.T) {
	if err := run([]string{"mesh", "-soak", "-relays", "2"}, io.Discard); err == nil {
		t.Fatal("a two-relay soak was accepted: a drain has no survivor to move its leaves to")
	}
}
