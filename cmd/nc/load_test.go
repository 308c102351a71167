package main

import (
	"io"
	"reflect"
	"testing"

	"extremenc/internal/netio"
)

func TestBuildWaves(t *testing.T) {
	// The committed ladder (`make loadtest`): three doubling depths, then one
	// systematic wave at peak depth.
	waves := buildWaves(options{sessions: 5120, steps: 3, systematic: true})
	want := []waveCfg{
		{netio.ModeDense, 1280}, {netio.ModeDense, 2560}, {netio.ModeDense, 5120},
		{netio.ModeSystematic, 5120},
	}
	if !reflect.DeepEqual(waves, want) {
		t.Fatalf("ladder = %+v\nwant %+v", waves, want)
	}
	if got := waves[0].benchName(); got != "BenchmarkServeLoad/sessions=1280" {
		t.Errorf("dense bench name %q", got)
	}
	if got := waves[len(waves)-1].benchName(); got != "BenchmarkServeLoad/sessions=5120/wire=systematic" {
		t.Errorf("systematic bench name %q", got)
	}

	// -smoke: exactly one dense wave.
	smoke := buildWaves(options{sessions: 1024, steps: 1})
	if !reflect.DeepEqual(smoke, []waveCfg{{netio.ModeDense, 1024}}) {
		t.Fatalf("smoke ladder = %+v", smoke)
	}

	// More steps than the depth can halve: empty and repeated depths drop out.
	var depths []int
	for _, w := range buildWaves(options{sessions: 4, steps: 6}) {
		depths = append(depths, w.sessions)
	}
	if !reflect.DeepEqual(depths, []int{1, 2, 4}) {
		t.Fatalf("depths = %v, want [1 2 4]", depths)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"load", "-shards", "1"}, // one pump per server: the flag is gone
		{"load", "-sessions", "0"},
		{"load", "-ramp-chunk", "0"},
		{"load", "-brownout"}, // the unrun brownout mode is gone, flag included
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}
