// Command benchmark is the repository's one yardstick: verified decoded
// goodput per CPU-second at the leaf, through origin → (relay →) leaf on real
// loopback sockets, over four workloads chosen to separate the layers, with a
// per-layer budget from a separate traced pass. See README.md.
//
//	go run -C benchmark .                       every workload, timed + traced; writes out/report.json
//	go run -C benchmark . -workload stream_xor  one workload, one pass (what ../BENCHMARK.json's command runs)
//	go run -C benchmark . -check old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	// A bring-up is mostly thread wake-ups and its time is spread over a decade
	// inside one process, so set-up is repeated for setupBudget (at least
	// setupMinReps times, at most setupMaxReps) and the lower quartile reported.
	setupMinReps = 30
	setupMaxReps = 600
	setupBudget  = 1200 * time.Millisecond
	timedWindows = 8
	minCPUUtil   = 1.5  // below this on a timed window the box was not ours
	maxSteal     = 0.05 // nor above this share of host CPU time withheld by the hypervisor
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	quick    bool
	outDir   string // relative to the benchmark directory, where both entry points run
}

func main() {
	o := options{outDir: "out"}
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: every workload, each in its own child process)")
	flag.Int64Var(&o.seed, "seed", 1, "derives media bytes, server seed, relay seed and fetcher backoff seeds")
	flag.Float64Var(&o.seconds, "seconds", 0, "measured seconds per pass, split into windows; warm-up and set-up come on top (default 24; 0.6 with -quick)")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = timed pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	flag.BoolVar(&o.quick, "quick", false, "smoke run: 0.6 s in all, short warm-up, 3 bring-ups, ladder shrunk 16x; numbers are not comparable")
	check := flag.Bool("check", false, "compare two reports: -check old.json new.json")
	flag.Parse()

	if *check {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -check old.json new.json"))
		}
		worse, err := runCheck(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if runtime.NumCPU() < 2 {
		fatal(fmt.Errorf("need at least 2 CPUs (have %d): origin, relay and two leaves share GOMAXPROCS=2", runtime.NumCPU()))
	}
	runtime.GOMAXPROCS(2)
	switch {
	case o.seconds < 0:
		fatal(fmt.Errorf("-seconds %g: want a positive duration", o.seconds))
	case o.seconds == 0 && o.quick:
		o.seconds = 0.6
	case o.seconds == 0:
		o.seconds = 24
	}
	if o.workload == "" {
		if err := runAll(o); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}
	res, err := runOne(w, o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runOne runs one pass of one workload in this process, prints the run record
// and raw per-window values, writes the pass's detail file and returns the
// contract's result.
func runOne(w workload, o options) (runResult, error) {
	warmup, reps, budget, shrink := 2*time.Second, setupMinReps, setupBudget, 1
	if o.quick {
		warmup, reps, budget, shrink = 100*time.Millisecond, 3, 0, 16
	}
	measured := time.Duration(o.seconds * float64(time.Second))
	media := makeMedia(w, o.seed)
	rec := newRunRecord(o.seed, o.seconds)
	fmt.Printf("# %s seed=%d commit=%s nproc=%d GOMAXPROCS=%d %s %s/%s\n", w.Name, rec.Seed, rec.Commit,
		rec.NProc, rec.GOMAXPROCS, rec.GoVersion, rec.GOOS, rec.GOARCH)
	fmt.Printf("# %s; %s\n", rec.Load, rec.Link)

	if o.trace == 1 {
		// Traced pass: ladder first (nothing else running), then an untraced
		// reference window and a traced window twice as long.
		lad, err := runLadder(w, o.seed, shrink)
		if err != nil {
			return runResult{}, err
		}
		m, err := drive(w, media, o.seed, warmup/2, []phase{{Dur: measured / 3}, {Dur: measured * 2 / 3, Traced: true}})
		if err != nil {
			return runResult{}, err
		}
		d := computeTraced(w, m, lad)
		d.Record = rec
		printViolations(d.Violations)
		if err := writeJSON(filepath.Join(o.outDir, "trace-"+w.Name+".json"), d); err != nil {
			return runResult{}, err
		}
		return runResult{Correct: d.Failed == 0, Attempted: max(d.Attempted, 1), Failed: d.Failed, Metrics: d.PerLayer}, nil
	}

	setup, err := measureSetup(w, media, o.seed, reps, budget)
	if err != nil {
		return runResult{}, err
	}
	phases := make([]phase, timedWindows)
	for i := range phases {
		phases[i].Dur = measured / timedWindows
	}
	m, err := drive(w, media, o.seed, warmup, phases)
	if err != nil {
		return runResult{}, err
	}
	d, err := computeTimed(w, m, setup)
	if err != nil {
		return runResult{}, err
	}
	d.Record = rec
	printViolations(d.Violations)
	for _, def := range endToEnd {
		e := d.EndToEnd[def.Name]
		printDetail(def.Name, e)
	}
	printDetail("fetch_p90_ms", d.FetchP90)
	for i, u := range d.CPUUtil {
		if u < minCPUUtil && !o.quick {
			fmt.Printf("# WARNING: window %d ran at proc.cpu_util=%.2f (< %.1f): the box was not ours, or the workload is not CPU-bound\n", i, u, minCPUUtil)
		}
		if st := d.Steal[i]; st > maxSteal {
			fmt.Printf("# WARNING: window %d: the hypervisor withheld %.0f%% of the CPUs' time (/proc/stat steal): the box was not ours\n", i, 100*st)
		}
	}
	if err := writeJSON(filepath.Join(o.outDir, "timed-"+w.Name+".json"), d); err != nil {
		return runResult{}, err
	}
	res := runResult{Correct: d.Failed == 0, Attempted: d.Attempted, Failed: d.Failed, Metrics: make(map[string]metricValue)}
	for name, e := range d.EndToEnd {
		res.Metrics[name] = e.metricValue
	}
	return res, nil
}

// printDetail prints one metric beside the raw values it was taken from.
func printDetail(name string, e e2eDetail) {
	fmt.Printf("# %-16s %12.4f %-5s windows=%.4f samples=%v\n", name, e.Value, e.Unit, e.Windows, e.Samples)
}

func printViolations(vs []string) {
	for _, v := range vs {
		fmt.Println("# VIOLATION:", v)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
