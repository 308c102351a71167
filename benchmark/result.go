package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
)

// metricValue is one metric in the form the driver's contract fixes.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the last line a single-workload run prints: exactly these
// four keys.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord says what produced a number, so two reports can be compared
// knowingly.
type runRecord struct {
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Link       string  `json:"link"`
	Load       string  `json:"load"`
}

func newRunRecord(seed int64, seconds float64) runRecord {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "unknown" {
		// `go run` does not stamp the binary; ask git, which fails harmlessly
		// in a checkout that is not a repository.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	return runRecord{
		Commit: commit, Seed: seed, Seconds: seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Link: "host loopback TCP, one process; no link is measured",
		Load: fmt.Sprintf("closed loop, %d leaf clients", leafClients),
	}
}

// e2eDetail is one end-to-end metric with the raw values behind it: a value
// per window (per batch of bring-ups for setup_s, a single pooled one for
// wire_efficiency), the sample count of each, and the spread of those raw
// values as a share of their median.
type e2eDetail struct {
	metricValue
	Better  string    `json:"better"`
	Bound   float64   `json:"bound"`
	Windows []float64 `json:"windows"`
	Samples []int     `json:"samples"`
	Spread  float64   `json:"spread"`
}

// timedDetail is everything the untraced run of one workload measured.
type timedDetail struct {
	Record     runRecord            `json:"record"`
	Workload   string               `json:"workload"`
	Why        string               `json:"why"`
	Attempted  int                  `json:"attempted"`
	Failed     int                  `json:"failed"`
	Violations []string             `json:"violations,omitempty"`
	CPUUtil    []float64            `json:"cpu_util_windows"`
	Steal      []float64            `json:"host_steal_windows"`
	EndToEnd   map[string]e2eDetail `json:"end_to_end"`
	// FetchP90 is informational here: it is declared per layer (the traced
	// pass emits it for the driver) because no bound holds it on relay_dense.
	FetchP90 e2eDetail `json:"fetch_p90_ms"`
}

// windowStats is what one window of a measurement amounts to.
type windowStats struct {
	wallS     float64
	cpuS      float64
	stealS    float64   // CPU-seconds the hypervisor withheld, all CPUs
	fetches   int       // verified fetches that completed in the window
	payload   float64   // verified decoded bytes, attributed as below
	wire      int64     // wire bytes those fetches consumed: FetchStats.Bytes + BytesDiscarded
	latencyMs []float64 // of the fetches that completed in the window
}

func (ws windowStats) goodputMBps() float64 { return ws.payload / 1e6 / ws.wallS }
func (ws windowStats) cpuSPerGB() float64   { return ws.cpuS / (ws.payload / 1e9) }
func (ws windowStats) cpuUtil() float64     { return ws.cpuS / ws.wallS }

// stealShare is the share of the host's CPUs' time the hypervisor withheld.
func (ws windowStats) stealShare() float64 { return ws.stealS / (ws.wallS * float64(runtime.NumCPU())) }

// windowsOf buckets the measurement's verified fetches. A fetch's latency
// belongs to the window it completed in; its payload bytes are spread over
// the windows its dial-to-verified interval overlaps, in proportion to the
// overlap, so a window's goodput does not jump by a whole object when a fetch
// ends a millisecond before or after a boundary (relay_dense completes two
// 1 MiB fetches every ~0.23 s). attempted counts every fetch that ended inside
// a window plus every failure outside one; failed counts failures wherever
// they fell.
func windowsOf(m *measurement, payloadLen int) (ws []windowStats, attempted, failed int) {
	bounds := boundTimes(m.bounds)
	ws = make([]windowStats, len(m.bounds)-1)
	for i := range ws {
		ws[i].wallS = m.bounds[i+1].at.Sub(m.bounds[i].at).Seconds()
		ws[i].cpuS = (m.bounds[i+1].cpu - m.bounds[i].cpu).Seconds()
		ws[i].stealS = (m.bounds[i+1].steal - m.bounds[i].steal).Seconds()
	}
	for _, s := range m.samples {
		if s.err != nil {
			attempted++
			failed++
			continue
		}
		start := s.end.Add(-s.latency)
		for i := range ws {
			lo, hi := bounds[i], bounds[i+1]
			if start.After(lo) {
				lo = start
			}
			if s.end.Before(hi) {
				hi = s.end
			}
			if over := hi.Sub(lo); over > 0 {
				ws[i].payload += float64(payloadLen) * float64(over) / float64(s.latency)
			}
		}
		if i := windowOf(s.end, bounds); i >= 0 {
			attempted++
			ws[i].fetches++
			ws[i].wire += s.stats.Bytes + s.stats.BytesDiscarded
			ws[i].latencyMs = append(ws[i].latencyMs, float64(s.latency.Nanoseconds())/1e6)
		}
	}
	return ws, attempted, failed
}

// computeTimed turns an untraced measurement into the end-to-end metrics.
// The host this runs on slows by a fifth for stretches of seconds when a
// neighbour wakes up (README, "Noise"), and interference only ever slows a
// window down, so a run reports its quietest window — the one with the
// highest goodput — for goodput, CPU per GB and median latency, and the lower
// quartile of its bring-ups for set-up time. Wire efficiency is a ratio of
// byte counts and pools every window. The values of all windows are kept
// beside each figure.
func computeTimed(w workload, m *measurement, setup []float64) (timedDetail, error) {
	ws, attempted, failed := windowsOf(m, w.mediaLen())
	d := timedDetail{Workload: w.Name, Why: w.Why, Attempted: attempted + len(setup), Failed: failed + len(m.violations),
		Violations: m.violations, EndToEnd: make(map[string]e2eDetail)}
	var goodput, cpu, p50, p90, pooled []float64
	var counts []int
	var wire int64
	best := -1
	for _, x := range ws {
		d.CPUUtil = append(d.CPUUtil, x.cpuUtil())
		d.Steal = append(d.Steal, x.stealShare())
		if x.fetches == 0 {
			continue
		}
		if best < 0 || x.goodputMBps() > goodput[best] {
			best = len(goodput)
		}
		wire += x.wire
		counts = append(counts, x.fetches)
		goodput = append(goodput, x.goodputMBps())
		cpu = append(cpu, x.cpuSPerGB())
		p50 = append(p50, percentile(x.latencyMs, 50))
		p90 = append(p90, percentile(x.latencyMs, 90))
		pooled = append(pooled, x.latencyMs...)
	}
	if best < 0 {
		return d, fmt.Errorf("%s: no fetch completed inside a measurement window", w.Name)
	}
	eff := float64(len(pooled)*w.mediaLen()) / float64(wire)
	batches, batchSizes := batchQuartiles(setup, len(ws))
	values := map[string]struct {
		v       float64
		windows []float64
		samples []int
	}{
		"goodput_mbps":    {goodput[best], goodput, counts},
		"fetch_p50_ms":    {p50[best], p50, counts},
		"cpu_s_per_gb":    {cpu[best], cpu, counts},
		"wire_efficiency": {eff, []float64{eff}, []int{len(pooled)}},
		"setup_s":         {lowerQuartile(setup), batches, batchSizes},
	}
	for _, def := range endToEnd {
		x := values[def.Name]
		d.EndToEnd[def.Name] = e2eDetail{
			metricValue: metricValue{x.v, def.Unit}, Better: def.Better, Bound: def.Bound,
			Windows: x.windows, Samples: x.samples, Spread: spread(x.windows),
		}
	}
	d.FetchP90 = e2eDetail{metricValue: metricValue{percentile(pooled, 90), "ms"}, Better: "lower",
		Windows: p90, Samples: counts, Spread: spread(p90)}
	return d, nil
}

// lowerQuartile is the set-up estimator: the bring-up time a quarter of the
// repetitions stayed at or below. A bring-up is a chain of thread wake-ups, so
// its times have a long upper tail and a median that moves with the host.
func lowerQuartile(xs []float64) float64 { return percentile(xs, 25) }

// batchQuartiles splits xs into n consecutive batches (fewer when xs is
// short) and returns each batch's lower quartile and size: the window-like raw
// values behind setup_s, whose spread says how far the figure wanders inside
// one process.
func batchQuartiles(xs []float64, n int) (quartiles []float64, sizes []int) {
	n = min(n, len(xs))
	for i := 0; i < n; i++ {
		batch := xs[i*len(xs)/n : (i+1)*len(xs)/n]
		quartiles = append(quartiles, lowerQuartile(batch))
		sizes = append(sizes, len(batch))
	}
	return quartiles, sizes
}
