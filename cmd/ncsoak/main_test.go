package main

import (
	"io"
	"math/rand"
	"reflect"
	"testing"
)

// TestMakeSchedule: the schedule is a function of the seed alone, and every
// schedule — even an empty draw — carries a leaf wave, a drain and a stall,
// or the soak would gate nothing.
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
			for _, must := range []event{evLeafWave, evDrain, evStall} {
				if !seen[must] {
					t.Fatalf("seed %d, %d events: no %s in %v", seed, events, must, a)
				}
			}
		}
	}
	if a, b := makeSchedule(rand.New(rand.NewSource(1)), 12), makeSchedule(rand.New(rand.NewSource(2)), 12); reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 1 and 2 drew the same schedule: %v", a)
	}
	for ev, want := range map[event]string{evLeafWave: "leaf-wave", evDrain: "drain-restart", evStall: "brownout-stall", evKill: "kill"} {
		if ev.String() != want {
			t.Errorf("event %d prints %q, want %q", ev, ev, want)
		}
	}
}

func TestRunRejectsTooFewRelays(t *testing.T) {
	if err := run([]string{"-relays", "2"}, io.Discard); err == nil {
		t.Fatal("a two-relay soak was accepted: a drain has no survivor to redirect to")
	}
}
