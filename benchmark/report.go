package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"
)

// workloadReport is one workload's slice of the combined report.
type workloadReport struct {
	Why        string                 `json:"why"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	EndToEnd   map[string]e2eDetail   `json:"end_to_end"`
	PerLayer   map[string]metricValue `json:"per_layer"`
	LayerShare map[string]float64     `json:"layer_share_of_cpu"`
}

// report is what a full run writes to out/report.json and what -check reads.
// Claim stays null: this benchmark states numbers, a later change states
// gains against them.
type report struct {
	Claim     *string                   `json:"claim"`
	Record    runRecord                 `json:"record"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// runAll re-executes this binary once per workload and pass, so pools, GC
// state and peak RSS do not leak from one workload into the next, then folds
// the children's detail files into one report.
func runAll(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{Record: newRunRecord(o.seed, o.seconds), Workloads: make(map[string]workloadReport)}
	failed := 0
	for _, w := range workloads {
		timed := filepath.Join(o.outDir, "timed-"+w.Name+".json")
		traced := filepath.Join(o.outDir, "trace-"+w.Name+".json")
		os.Remove(timed)  //nolint:errcheck // a stale file must not pass for this run's
		os.Remove(traced) //nolint:errcheck
		for pass := 0; pass <= 1; pass++ {
			args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(pass)}
			if o.quick {
				args = append(args, "-quick")
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Printf("# %s pass %d: %v\n", w.Name, pass, err)
				failed++
			}
		}
		var td timedDetail
		var tr traceDetail
		if err := readJSON(timed, &td); err != nil {
			return err
		}
		if err := readJSON(traced, &tr); err != nil {
			return err
		}
		rep.Workloads[w.Name] = workloadReport{Why: w.Why, Attempted: td.Attempted + tr.Attempted, Failed: td.Failed + tr.Failed,
			EndToEnd: td.EndToEnd, PerLayer: tr.PerLayer, LayerShare: tr.LayerShare}
	}
	if err := writeJSON(filepath.Join(o.outDir, "report.json"), rep); err != nil {
		return err
	}
	printReport(os.Stdout, rep)
	fmt.Printf("\nper-layer metrics and spans: %s/trace-<workload>.json; combined report: %s/report.json\n", o.outDir, o.outDir)
	if failed > 0 {
		return fmt.Errorf("%d pass(es) failed", failed)
	}
	return nil
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func printReport(out io.Writer, rep report) {
	r := rep.Record
	fmt.Fprintf(out, "\ncommit=%s seed=%d seconds=%g nproc=%d GOMAXPROCS=%d %s %s/%s\n%s; %s\n\n",
		r.Commit, r.Seed, r.Seconds, r.NProc, r.GOMAXPROCS, r.GoVersion, r.GOOS, r.GOARCH, r.Load, r.Link)
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit\tbetter\tbound\tspread\tsamples\tfailed")
	for _, w := range workloads {
		wr := rep.Workloads[w.Name]
		for _, def := range endToEnd {
			e := wr.EndToEnd[def.Name]
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%s\t%s\t%.2f\t%.3f\t%v\t%d/%d\n", w.Name, def.Name, e.Value, e.Unit, e.Better, e.Bound,
				e.Spread, e.Samples, wr.Failed, wr.Attempted)
		}
	}
	tw.Flush() //nolint:errcheck // terminal output
	fmt.Fprintln(out, "\nlayer busy time as a share of traced-window CPU-seconds:")
	tw = tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\trlnc\tnetio\tfetch\tmesh\tbudget.coverage\ttrace.overhead_pct")
	for _, w := range workloads {
		wr := rep.Workloads[w.Name]
		s := wr.LayerShare
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f\t%.2f\n", w.Name, s["rlnc"], s["netio"], s["fetch"], s["mesh"],
			wr.PerLayer["budget.coverage"].Value, wr.PerLayer["trace.overhead_pct"].Value)
	}
	tw.Flush() //nolint:errcheck
}

// verdict compares one end-to-end metric across two reports. A metric is
// worse when the new value is beyond the bound in the bad direction, and
// unresolved — neither ok nor worse — when the old report's own spread
// already exceeds the bound, since the comparison cannot tell noise from
// change.
func verdict(old, cur e2eDetail) (delta float64, v string) {
	delta = ratio(cur.Value-old.Value, old.Value)
	worse := delta
	if old.Better == "higher" {
		worse = -delta
	}
	switch {
	case old.Spread > old.Bound:
		return delta, "unresolved"
	case worse > old.Bound:
		return delta, "worse"
	}
	return delta, "ok"
}

// runCheck prints the workload × end-to-end-metric comparison of two reports
// and reports whether any pairing got worse.
func runCheck(out io.Writer, oldPath, newPath string) (worse bool, err error) {
	var a, b report
	if err := readJSON(oldPath, &a); err != nil {
		return false, err
	}
	if err := readJSON(newPath, &b); err != nil {
		return false, err
	}
	if a.Record.Seed != b.Record.Seed || a.Record.Seconds != b.Record.Seconds {
		fmt.Fprintf(out, "note: comparing seed %d / %gs against seed %d / %gs\n", a.Record.Seed, a.Record.Seconds, b.Record.Seed, b.Record.Seconds)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tunit\tdelta\tbound\told spread\tverdict")
	counts := map[string]int{}
	for _, w := range workloads {
		for _, def := range endToEnd {
			o, ok1 := a.Workloads[w.Name].EndToEnd[def.Name]
			n, ok2 := b.Workloads[w.Name].EndToEnd[def.Name]
			if !ok1 || !ok2 {
				return false, fmt.Errorf("%s/%s missing from a report", w.Name, def.Name)
			}
			delta, v := verdict(o, n)
			counts[v]++
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%s\t%+.1f%%\t%.0f%%\t%.1f%%\t%s\n", w.Name, def.Name, o.Value, n.Value, o.Unit,
				100*delta, 100*o.Bound, 100*o.Spread, v)
		}
	}
	tw.Flush() //nolint:errcheck
	var parts []string
	for _, v := range []string{"ok", "worse", "unresolved"} {
		parts = append(parts, fmt.Sprintf("%d %s", counts[v], v))
	}
	fmt.Fprintln(out, strings.Join(parts, ", "))
	return counts["worse"] > 0, nil
}
