package main

import (
	"io"
	"reflect"
	"testing"

	"extremenc/internal/netio"
)

func TestParseShards(t *testing.T) {
	for in, want := range map[string][]int{
		"1,2,4":     {1, 2, 4},
		" 4, 2 ,1 ": {1, 2, 4},
		"2,,3":      {2, 3},
		"7":         {7},
	} {
		got, err := parseShards(in)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("parseShards(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"", " , ", "0", "-1", "two", "1,x"} {
		if got, err := parseShards(in); err == nil {
			t.Errorf("parseShards(%q) = %v, want an error", in, got)
		}
	}
}

func TestBuildWaves(t *testing.T) {
	// The committed ladder (`make loadtest`): three doubling depths at each
	// shard count, then one systematic wave at peak depth and max shards.
	waves := buildWaves(options{sessions: 5120, steps: 3, shards: []int{1, 2, 4}, systematic: true})
	var want []waveCfg
	for _, d := range []int{1280, 2560, 5120} {
		for _, s := range []int{1, 2, 4} {
			want = append(want, waveCfg{netio.ModeDense, s, d})
		}
	}
	want = append(want, waveCfg{netio.ModeSystematic, 4, 5120})
	if !reflect.DeepEqual(waves, want) {
		t.Fatalf("ladder = %+v\nwant %+v", waves, want)
	}
	if got := waves[0].benchName(); got != "BenchmarkServeLoad/shards=1/sessions=1280" {
		t.Errorf("dense bench name %q", got)
	}
	if got := waves[len(waves)-1].benchName(); got != "BenchmarkServeLoad/shards=4/sessions=5120/wire=systematic" {
		t.Errorf("systematic bench name %q", got)
	}

	// -smoke: exactly one dense wave.
	smoke := buildWaves(options{sessions: 1024, steps: 1, shards: []int{4}})
	if !reflect.DeepEqual(smoke, []waveCfg{{netio.ModeDense, 4, 1024}}) {
		t.Fatalf("smoke ladder = %+v", smoke)
	}

	// More steps than the depth can halve: empty and repeated depths drop out.
	var depths []int
	for _, w := range buildWaves(options{sessions: 4, steps: 6, shards: []int{1}}) {
		depths = append(depths, w.sessions)
	}
	if !reflect.DeepEqual(depths, []int{1, 2, 4}) {
		t.Fatalf("depths = %v, want [1 2 4]", depths)
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-shards", "0"},
		{"-sessions", "0"},
		{"-ramp-chunk", "0"},
		{"-brownout"}, // the unrun brownout mode is gone, flag included
	} {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
