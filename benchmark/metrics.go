package main

import "extremenc/internal/netio"

// metricDef declares one metric: the name later issues cite verbatim, its
// unit, which direction is better, and — end-to-end metrics only — the share
// of the parent's median by which it may worsen before a change counts as a
// regression. BENCHMARK.json repeats these declarations for the driver;
// TestBenchmarkJSONMatchesDeclarations keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
}

// endToEnd is what a user of the stack sees at the leaf. The bounds are what
// this class of host can resolve, not what one would wish for: it runs a
// fifth slower for a minute or two at a time (README, "Noise"), so every
// metric carries the widest bound the driver allows. fetch_p90_ms, the tail of
// the ~25 fetches a window of the slowest workload holds, is reported per
// layer instead.
var endToEnd = []metricDef{
	{"goodput_mbps", "MB/s", "higher", 0.25},
	{"fetch_p50_ms", "ms", "lower", 0.25},
	{"cpu_s_per_gb", "s/GB", "lower", 0.25},
	{"wire_efficiency", "ratio", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is one entry per module-level counter, busy time or ratio; the
// README's prediction sheet says which end-to-end metric each should move on
// which workload. Every traced run emits all of them: a metric whose layer a
// workload bypasses reads 0.
var perLayer = []metricDef{
	// gf256 / rlnc / netio ladder: isolated single-threaded calls at the
	// workload's (n, k).
	{Name: "gf256.muladd_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "gf256.xor_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "rlnc.encode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "rlnc.absorb_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "rlnc.recode_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "rlnc.unmarshal_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "netio.frame_ns_per_rec", Unit: "ns", Better: "lower"},

	// rlnc stage histograms over the traced window.
	{Name: "rlnc.encode_batch.busy_s", Unit: "s", Better: "lower"},
	{Name: "rlnc.encode_batch.count", Unit: "count", Better: "lower"},
	{Name: "rlnc.absorb.busy_s", Unit: "s", Better: "lower"},
	{Name: "rlnc.absorb.count", Unit: "count", Better: "lower"},
	{Name: "rlnc.xor_absorb.busy_s", Unit: "s", Better: "lower"},
	{Name: "rlnc.xor_absorb.count", Unit: "count", Better: "higher"},
	{Name: "rlnc.xor_path_ratio", Unit: "ratio", Better: "higher"},

	// netio serving side: stage histograms and the origin's Snapshot ledger.
	{Name: "netio.queue_offer.busy_s", Unit: "s", Better: "lower"},
	{Name: "netio.record_send.busy_s", Unit: "s", Better: "lower"},
	{Name: "netio.record_send.p99_us", Unit: "us", Better: "lower"},
	{Name: "netio.handshake.busy_s", Unit: "s", Better: "lower"},
	{Name: "netio.encode_stall_s", Unit: "s", Better: "lower"},
	{Name: "netio.blocks_encoded", Unit: "count", Better: "lower"},
	{Name: "netio.blocks_offered", Unit: "count", Better: "lower"},
	{Name: "netio.blocks_sent", Unit: "count", Better: "higher"},
	{Name: "netio.blocks_shed", Unit: "count", Better: "lower"},
	{Name: "netio.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "netio.encode_overshoot", Unit: "ratio", Better: "lower"},

	// Fetch side: the tail latency over every window of the traced pass, the
	// leaves' FetchStats and the fetcher's stage histograms.
	{Name: "fetch_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "fetch.records", Unit: "count", Better: "lower"},
	{Name: "fetch.dependent", Unit: "count", Better: "lower"},
	{Name: "fetch.dependent_ratio", Unit: "ratio", Better: "lower"},
	{Name: "fetch.bytes_discarded", Unit: "B", Better: "lower"},
	{Name: "fetch.reconnects", Unit: "count", Better: "lower"},
	{Name: "fetch.corrupt", Unit: "count", Better: "lower"},
	{Name: "fetch.record_decode.busy_s", Unit: "s", Better: "lower"},
	{Name: "fetch.dial.busy_s", Unit: "s", Better: "lower"},

	// mesh: relay stage histograms, bring-up spans and Relay.Ledger().
	{Name: "mesh.relay_absorb.busy_s", Unit: "s", Better: "lower"},
	{Name: "mesh.recode.busy_s", Unit: "s", Better: "lower"},
	{Name: "mesh.recode.count", Unit: "count", Better: "lower"},
	{Name: "mesh.relay.bringup_ms", Unit: "ms", Better: "lower"},
	{Name: "mesh.relay.fill_ms", Unit: "ms", Better: "lower"},
	{Name: "mesh.relay.blocks_sent", Unit: "count", Better: "higher"},
	{Name: "mesh.relay.blocks_shed", Unit: "count", Better: "lower"},

	// Wire, seen from the leaf's connection wrapper, and the per-fetch phases
	// (median span durations).
	{Name: "wire.read_wait_s", Unit: "s", Better: "lower"},
	{Name: "wire.read_calls", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_read", Unit: "B", Better: "higher"},
	{Name: "leaf.dial_ms", Unit: "ms", Better: "lower"},
	{Name: "leaf.handshake_ms", Unit: "ms", Better: "lower"},
	{Name: "leaf.first_record_ms", Unit: "ms", Better: "lower"},
	{Name: "leaf.stream_ms", Unit: "ms", Better: "lower"},
	{Name: "leaf.finish_ms", Unit: "ms", Better: "lower"},

	// Process.
	{Name: "proc.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "proc.gc_cpu_s", Unit: "s", Better: "lower"},
	{Name: "proc.alloc_bytes_per_payload_byte", Unit: "ratio", Better: "lower"},
	{Name: "proc.allocs_per_record", Unit: "ratio", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.goroutines_peak", Unit: "count", Better: "lower"},

	// The benchmark's own books.
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "budget.coverage", Unit: "ratio", Better: "higher"},
}

// workload is one set of inputs. Everything a workload does not name is
// DefaultServerConfig / DefaultFetcherConfig.
type workload struct {
	Name     string
	Why      string
	N, K     int // blocks per segment, bytes per block
	Segments int
	Mode     netio.WireMode
	Relay    bool // leaves fetch through a cold recoding relay per iteration
}

func (w workload) mediaLen() int { return w.N * w.K * w.Segments }

// The four workloads exist to separate the layers: each optimisation a later
// issue proposes has one workload that exercises its mechanism and one that
// bypasses it (where the prediction is "no change").
var workloads = []workload{
	{
		Name: "stream_dense", N: 128, K: 4096, Segments: 2, Mode: netio.ModeDense,
		Why: "the paper's streaming shape (n=128, k=4 KB, dense): GF(2^8) encode and Gauss-Jordan absorb do nearly all the work",
	},
	{
		Name: "stream_xor", N: 128, K: 4096, Segments: 2, Mode: netio.ModeSystematic,
		Why: "same object, systematic/XOR mode: the codec is nearly free, so framing, fan-out, record parse and wasted records dominate",
	},
	{
		Name: "small_dense", N: 32, K: 256, Segments: 32, Mode: netio.ModeDense,
		Why: "smallest record the stack is meant for (n=32, k=256): per-record and per-fetch fixed cost dominate, not kernel bandwidth",
	},
	{
		Name: "relay_dense", N: 128, K: 4096, Segments: 2, Mode: netio.ModeDense, Relay: true,
		Why: "origin to cold recoding relay to leaves: encode, relay absorb, recode and leaf decode in one pipeline through the RecordSource seam",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
