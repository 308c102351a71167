package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"extremenc/internal/netio"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}, {91, 10}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median(xs); got != 5.5 {
		t.Errorf("median even = %v, want 5.5", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v, want 2", got)
	}
	if percentile(nil, 50) != 0 || median(nil) != 0 {
		t.Error("empty input must read 0")
	}
	if xs[0] != 9 {
		t.Error("input was reordered")
	}
	if got := lowerQuartile([]float64{8, 1, 5, 3, 7, 2, 6, 4}); got != 2 {
		t.Errorf("lowerQuartile = %v, want 2", got)
	}
	qs, sizes := batchQuartiles([]float64{2, 1, 4, 3, 5, 6, 7}, 3)
	if len(qs) != 3 || qs[0] != 1 || qs[1] != 3 || qs[2] != 5 || sizes[0]+sizes[1]+sizes[2] != 7 {
		t.Errorf("batchQuartiles = %v sizes %v", qs, sizes)
	}
	if qs, _ := batchQuartiles([]float64{4, 2}, 6); len(qs) != 2 {
		t.Errorf("short input: %v", qs)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{16.2, 15.7, 17.2, 16.0, 16.4, 15.9, 16.1, 16.8, 16.3, 16.0}, 15.975, 16.5},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{90, 100, 110}); !near(got, 0.2) {
		t.Errorf("spread = %v, want 0.2", got)
	}
	if spread([]float64{5}) != 0 || spread([]float64{0, 0, 0}) != 0 {
		t.Error("a single value or a zero median has no spread")
	}
}

// synthetic builds a measurement with 1 s windows starting at t0: CPU grows by
// 2 s per window and the hypervisor withholds 0.2 CPU-seconds in each, and
// each fetch is given as (end offset, latency, wire bytes, error).
type synthFetch struct {
	endMs, latencyMs int
	wire             int64
	err              error
}

func synthetic(windows int, fetches []synthFetch) (*measurement, time.Time) {
	t0 := time.Unix(1000, 0)
	m := &measurement{}
	for i := 0; i <= windows; i++ {
		m.bounds = append(m.bounds, counters{at: t0.Add(time.Duration(i) * time.Second), cpu: time.Duration(2*i) * time.Second,
			steal: time.Duration(200*i) * time.Millisecond})
	}
	for _, f := range fetches {
		m.samples = append(m.samples, fetchSample{
			end:     t0.Add(time.Duration(f.endMs) * time.Millisecond),
			latency: time.Duration(f.latencyMs) * time.Millisecond,
			stats:   netio.FetchStats{Bytes: f.wire}, err: f.err,
		})
	}
	return m, t0
}

func TestWindowBucketing(t *testing.T) {
	m, t0 := synthetic(3, []synthFetch{
		{endMs: -5, latencyMs: 1, wire: 10},                           // warm-up: ignored
		{endMs: 0, latencyMs: 10, wire: 10},                           // ends on the first boundary: completes in window 0, bytes before it
		{endMs: 999, latencyMs: 20, wire: 10},                         // wholly in window 0
		{endMs: 1000, latencyMs: 30, wire: 10},                        // completes in window 1, every byte moved in window 0
		{endMs: 2500, latencyMs: 1000, wire: 10},                      // half in window 1, half in window 2
		{endMs: 3000, latencyMs: 50, wire: 10},                        // bytes in window 2, completes after the last boundary
		{endMs: 1500, latencyMs: 60, err: errors.New("boom")},         // failure inside a window
		{endMs: -100, latencyMs: 70, err: errors.New("warm-up boom")}, // failure outside one still counts
	})
	bounds := boundTimes(m.bounds)
	if got := windowOf(t0.Add(-time.Millisecond), bounds); got != -1 {
		t.Errorf("before the first boundary: window %d", got)
	}
	ws, attempted, failed := windowsOf(m, 100)
	if attempted != 6 || failed != 2 {
		t.Errorf("attempted %d failed %d, want 6 and 2", attempted, failed)
	}
	for i, want := range []struct {
		fetches int
		payload float64
	}{{2, 200}, {1, 50}, {1, 150}} {
		if ws[i].fetches != want.fetches || !near(ws[i].payload, want.payload) {
			t.Errorf("window %d: %d fetches, %v bytes; want %d, %v", i, ws[i].fetches, ws[i].payload, want.fetches, want.payload)
		}
		if !near(ws[i].wallS, 1) || !near(ws[i].cpuS, 2) || !near(ws[i].cpuUtil(), 2) ||
			!near(ws[i].stealShare(), 0.2/float64(runtime.NumCPU())) {
			t.Errorf("window %d: wall %v cpu %v steal %v", i, ws[i].wallS, ws[i].cpuS, ws[i].stealS)
		}
	}
	if !near(ws[0].goodputMBps(), 200/1e6) || !near(ws[0].cpuSPerGB(), 2/(200/1e9)) {
		t.Errorf("window 0 rates: %v %v", ws[0].goodputMBps(), ws[0].cpuSPerGB())
	}
}

func TestQuietestWindowIsReported(t *testing.T) {
	w := workload{Name: "synthetic", N: 1, K: 1000, Segments: 1}
	var fetches []synthFetch
	// Window 0: 1 fetch, window 1: 3 fetches, window 2: 2 fetches, window 3: none.
	for i, n := range []int{1, 3, 2, 0} {
		for j := 0; j < n; j++ {
			fetches = append(fetches, synthFetch{endMs: 1000*i + 100*(j+1), latencyMs: 10 * (i + 1), wire: 2000})
		}
	}
	m, _ := synthetic(4, fetches)
	d, err := computeTimed(w, m, []float64{0.3, 0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	g := d.EndToEnd["goodput_mbps"]
	if len(g.Windows) != 3 || !near(g.Value, 3000/1e6) {
		t.Errorf("goodput %v over windows %v: want window 1, the highest of the three that completed a fetch", g.Value, g.Windows)
	}
	if got := d.EndToEnd["fetch_p50_ms"].Value; got != 20 {
		t.Errorf("p50 = %v, want window 1's 20", got)
	}
	if got := d.EndToEnd["cpu_s_per_gb"].Value; !near(got, 2/(3000/1e9)) {
		t.Errorf("cpu_s_per_gb = %v, want window 1's", got)
	}
	if got := d.FetchP90.Value; got != 30 {
		t.Errorf("pooled p90 = %v, want 30", got)
	}
	if got := d.EndToEnd["wire_efficiency"]; !near(got.Value, 0.5) || got.Samples[0] != 6 {
		t.Errorf("wire efficiency = %+v, want 0.5 pooled over 6 fetches", got)
	}
	if got := d.EndToEnd["setup_s"]; !near(got.Value, 0.1) || len(got.Windows) != 3 || got.Samples[0] != 1 {
		t.Errorf("setup_s = %+v", got)
	}
	if d.Attempted != 6+3 || d.Failed != 0 {
		t.Errorf("attempted %d failed %d", d.Attempted, d.Failed)
	}
	if len(d.CPUUtil) != 4 {
		t.Errorf("cpu_util reported for %d windows, want all 4", len(d.CPUUtil))
	}
	empty, _ := synthetic(2, nil)
	if _, err := computeTimed(w, empty, []float64{1}); err == nil {
		t.Error("a run in which no fetch completed must fail, not report zeros")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a: the union counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent
		{ID: 5, Parent: 3, Name: "b1", Start: 20, End: 50}, // covers b entirely
		{ID: 6, Parent: 99, Name: "orphan", Start: 0, End: 7},
	}
	self := selfTimes(spans)
	for id, want := range map[uint64]time.Duration{1: 50, 2: 20, 3: 0, 4: 30, 5: 30, 6: 7} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestCountingConnAccounting(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	chunks := [][]byte{bytes.Repeat([]byte{1}, 10), bytes.Repeat([]byte{2}, 300), bytes.Repeat([]byte{3}, 7)}
	go func() {
		defer server.Close()
		for _, c := range chunks {
			server.Write(c) //nolint:errcheck // the reader's byte count is the assertion
		}
	}()
	var stats wireStats
	cc := &countingConn{Conn: client, stats: &stats}
	buf := make([]byte, 1024)
	total, calls := 0, 0
	for {
		n, err := cc.Read(buf)
		total += n
		calls++
		if err != nil {
			break
		}
	}
	if total != 317 || stats.readBytes.Load() != 317 {
		t.Errorf("read %d bytes, wrapper counted %d, want 317", total, stats.readBytes.Load())
	}
	if stats.readCalls.Load() != int64(calls) {
		t.Errorf("wrapper counted %d calls, made %d", stats.readCalls.Load(), calls)
	}
	if stats.readWaitNs.Load() <= 0 {
		t.Error("no read wait accounted")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkJSON mirrors ../BENCHMARK.json, the declaration the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []declared `json:"end_to_end"`
	PerLayer   []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              *float64
}

func TestBenchmarkJSONMatchesDeclarations(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		unique(w.Name)
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, metrics.go has %q / %q", i, b.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	match := func(kind string, got []declared, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d declared, %d defined", kind, len(got), len(want))
		}
		for i, def := range want {
			unique(def.Name)
			g := got[i]
			if g.Name != def.Name || g.Unit != def.Unit || g.Better != def.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, metrics.go has %+v", kind, i, g, def)
			}
			if def.Better != "higher" && def.Better != "lower" {
				t.Errorf("%s: better = %q", def.Name, def.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != def.Bound || def.Bound <= 0 || def.Bound > 0.25):
				t.Errorf("%s: bound in BENCHMARK.json does not match %v (or is outside (0, 0.25])", def.Name, def.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", def.Name)
			}
		}
	}
	match("end_to_end", b.EndToEnd, endToEnd, true)
	match("per_layer", b.PerLayer, perLayer, false)
}

// Every declared per-layer metric is emitted by computeTraced whatever the
// workload bypasses, and every end-to-end one by computeTimed.
func TestEveryDeclaredMetricIsEmitted(t *testing.T) {
	w := workloads[0]
	m, _ := synthetic(2, []synthFetch{{endMs: 500, latencyMs: 5, wire: 10}, {endMs: 1500, latencyMs: 5, wire: 10}})
	tr := computeTraced(w, m, ladder{})
	if len(tr.PerLayer) != len(perLayer) {
		t.Errorf("traced pass emits %d metrics, %d declared", len(tr.PerLayer), len(perLayer))
	}
	for _, def := range perLayer {
		if v, ok := tr.PerLayer[def.Name]; !ok || v.Unit != def.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("per-layer %s: emitted %+v (present %v)", def.Name, v, ok)
		}
	}
	td, err := computeTimed(w, m, []float64{0.1})
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range endToEnd {
		if v, ok := td.EndToEnd[def.Name]; !ok || v.Unit != def.Unit {
			t.Errorf("end-to-end %s: emitted %+v (present %v)", def.Name, v, ok)
		}
	}
}

// A -quick run of every workload: the contract's JSON parses and carries every
// end-to-end metric and no operation fails. Nothing here asserts a time.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector a dense fetch outlasts its 10 s deadline")
	}
	dir := t.TempDir()
	for _, w := range workloads {
		seconds := 0.6
		if w.Relay {
			seconds = 1 // a relay iteration takes a quarter of a second
		}
		res, err := runOne(w, options{seed: 7, seconds: seconds, quick: true, outDir: dir})
		for err != nil && strings.Contains(err.Error(), "no fetch completed") && seconds < 5 {
			// A loaded box needs longer windows to complete a fetch; that is
			// not a failure of the run.
			seconds *= 4
			res, err = runOne(w, options{seed: 7, seconds: seconds, quick: true, outDir: dir})
		}
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkResult(t, w.Name, res, endToEnd)
		var td timedDetail
		if err := readJSON(filepath.Join(dir, "timed-"+w.Name+".json"), &td); err != nil {
			t.Fatal(err)
		}
		if len(td.EndToEnd["goodput_mbps"].Windows) == 0 || td.Record.Seed != 7 {
			t.Errorf("%s: detail file lacks windows or the run record: %+v", w.Name, td.Record)
		}
	}
}

// Tiny objects through every concurrent path — direct and relayed, dense and
// systematic, untraced then traced — so the race detector, which the real
// workloads are too slow for, still sees the harness.
func TestTinyWorkloadsThroughEveryPath(t *testing.T) {
	for _, w := range []workload{
		{Name: "tiny_dense", N: 8, K: 64, Segments: 2, Mode: netio.ModeDense},
		{Name: "tiny_xor", N: 8, K: 64, Segments: 2, Mode: netio.ModeSystematic},
		{Name: "tiny_relay", N: 8, K: 64, Segments: 2, Mode: netio.ModeDense, Relay: true},
	} {
		m, err := drive(w, makeMedia(w, 3), 3, 20*time.Millisecond,
			[]phase{{Dur: 100 * time.Millisecond}, {Dur: 200 * time.Millisecond, Traced: true}})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(m.violations) != 0 || len(m.bounds) != 3 {
			t.Errorf("%s: violations %v, %d boundaries", w.Name, m.violations, len(m.bounds))
		}
		for _, s := range m.samples {
			if s.err != nil {
				t.Errorf("%s: fetch failed: %v", w.Name, s.err)
			}
		}
		names := map[string]int{}
		for _, s := range m.spans {
			names[s.Name]++
			if s.End < s.Start {
				t.Errorf("%s: span %+v ends before it starts", w.Name, s)
			}
		}
		for _, phase := range []string{"fetch", "dial", "handshake", "first_record", "stream", "finish", "verify"} {
			if names[phase] == 0 || names[phase] != names["fetch"] {
				t.Errorf("%s: %d %q spans for %d fetches", w.Name, names[phase], phase, names["fetch"])
			}
		}
		tr := computeTraced(w, m, ladder{})
		if tr.Failed != 0 || tr.PerLayer["fetch.records"].Value == 0 || tr.PerLayer["wire.read_calls"].Value == 0 ||
			tr.PerLayer["netio.blocks_sent"].Value == 0 {
			t.Errorf("%s: traced window saw no traffic or failed: failed=%d %+v", w.Name, tr.Failed, tr.PerLayer)
		}
		if relayed := tr.PerLayer["mesh.recode.count"].Value > 0 && names["relay_iteration"] > 0; relayed != w.Relay {
			t.Errorf("%s: mesh activity %v, want %v", w.Name, relayed, w.Relay)
		}
		if xor := tr.PerLayer["rlnc.xor_absorb.count"].Value > 0; xor != (w.Mode == netio.ModeSystematic) {
			t.Errorf("%s: xor absorbs %v", w.Name, xor)
		}
	}
}

func checkResult(t *testing.T, what string, res runResult, defs []metricDef) {
	t.Helper()
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var back map[string]json.RawMessage
	if err := json.Unmarshal(line, &back); err != nil || len(back) != 4 {
		t.Fatalf("%s: result line %s: %v", what, line, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", what, len(res.Metrics), len(defs))
	}
	for _, def := range defs {
		if v, ok := res.Metrics[def.Name]; !ok || v.Unit != def.Unit {
			t.Errorf("%s: metric %s = %+v (present %v)", what, def.Name, v, ok)
		}
	}
}

func TestCheckVerdicts(t *testing.T) {
	mk := func(goodput, p50, spread float64) report {
		rep := report{Workloads: map[string]workloadReport{}}
		for _, w := range workloads {
			e := map[string]e2eDetail{}
			for _, def := range endToEnd {
				e[def.Name] = e2eDetail{metricValue: metricValue{1, def.Unit}, Better: def.Better, Bound: def.Bound}
			}
			g := e["goodput_mbps"]
			g.Value, g.Spread = goodput, spread
			e["goodput_mbps"] = g
			p := e["fetch_p50_ms"]
			p.Value = p50
			e["fetch_p50_ms"] = p
			rep.Workloads[w.Name] = workloadReport{EndToEnd: e}
		}
		return rep
	}
	dir := t.TempDir()
	write := func(name string, rep report) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(100, 10, 0.02))
	all := fmt.Sprintf("%d ok", len(workloads)*len(endToEnd))
	perMetric := fmt.Sprint(len(workloads))
	for _, c := range []struct {
		name      string
		cur       report
		old       string
		wantWorse bool
		wantWords []string
	}{
		{"same", mk(100, 10, 0.02), base, false, []string{all + ", 0 worse, 0 unresolved"}},
		{"within bound", mk(80, 12, 0.02), base, false, []string{all}},
		{"goodput fell", mk(70, 10, 0.02), base, true, []string{perMetric + " worse", "-30.0%"}},
		{"latency rose", mk(100, 13, 0.02), base, true, []string{perMetric + " worse", "+30.0%"}},
		{"better is never worse", mk(150, 5, 0.02), base, false, []string{all}},
		{"noisy baseline", mk(70, 10, 0.02), write("noisy.json", mk(100, 10, 0.3)), false, []string{perMetric + " unresolved", "0 worse"}},
	} {
		var out bytes.Buffer
		worse, err := runCheck(&out, c.old, write("cur.json", c.cur))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if worse != c.wantWorse {
			t.Errorf("%s: worse = %v, want %v\n%s", c.name, worse, c.wantWorse, out.String())
		}
		for _, word := range c.wantWords {
			if !strings.Contains(out.String(), word) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, word, out.String())
			}
		}
	}
	if _, err := runCheck(&bytes.Buffer{}, base, filepath.Join(dir, "missing.json")); err == nil {
		t.Error("a missing report must be an error")
	}
}

func TestWorkloadsSeparateTheLayers(t *testing.T) {
	var dense, xor, relay int
	for _, w := range workloads {
		if w.Mode == netio.ModeSystematic {
			xor++
		} else {
			dense++
		}
		if w.Relay {
			relay++
		}
		if got := len(makeMedia(w, 1)); got != w.mediaLen() || got == 0 {
			t.Errorf("%s: media is %d bytes", w.Name, got)
		}
	}
	if dense == 0 || xor == 0 || relay == 0 || relay == len(workloads) {
		t.Errorf("workloads do not cover codec-bound, codec-free, relayed and direct: dense=%d xor=%d relay=%d", dense, xor, relay)
	}
	if bytes.Equal(makeMedia(workloads[0], 1), makeMedia(workloads[0], 2)) {
		t.Error("different seeds gave the same media")
	}
	if !bytes.Equal(makeMedia(workloads[0], 3), makeMedia(workloads[0], 3)) {
		t.Error("the same seed gave different media")
	}
}
