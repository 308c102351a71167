package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
	"testing"

	"extremenc/internal/gf256"
	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

// exemplarStages are the tail histograms the exemplar gate watches:
// origin/relay writev flushes and leaf record decodes.
var exemplarStages = []string{"netio.record_send", "fetch.record_decode"}

// benchTol is how far the encode-batch speedup multiple may fall below the
// committed one.
const benchTol = 0.35

// traceGates holds what the -trace preset measures before the mesh comes up:
// the disabled path's allocations and the encode-batch gate's failure, if any.
type traceGates struct {
	allocs float64
	bench  string
}

// check reassembles the flight ring of a finished traced run into
// per-generation latency (encode, queue offer, writev flush, relay recode,
// leaf absorb) and gates it: zero orphan spans across all three tiers, no ring
// wrap, every codec stage present, a histogram exemplar whose trace is in the
// dump, admission and reconnect events in the ring, plus the two
// measurements taken up front.
func (tg traceGates) check(r *meshRun, reg *obs.Registry, invariants map[string]bool) error {
	dump := trace.Dump()
	asm := trace.Assemble(dump)
	traces := make(map[trace.TraceID]bool)
	kinds := make(map[string]int)
	for i := range dump {
		if dump[i].Trace != 0 {
			traces[dump[i].Trace] = true
		}
		if dump[i].Kind != trace.KindSpan {
			kinds[dump[i].Kind.String()]++
		}
	}
	fmt.Fprint(r.out, asm.Table())
	exemplars, linked := 0, false
	for _, name := range exemplarStages {
		if ex, ok := reg.Histogram(name, "").Exemplar(); ok {
			in := traces[trace.TraceID(ex.TraceID)]
			exemplars, linked = exemplars+1, linked || in
			fmt.Fprintf(r.out, "exemplar %s: %v on trace %d span %d (in dump: %v)\n", name, ex.Value, ex.TraceID, ex.SpanID, in)
		}
	}
	rec := trace.Active()
	fmt.Fprintf(r.out, "flight events: %v (published %d / ring %d)\n", kinds, rec.Published(), rec.Cap())

	var fails []string
	gate := func(name string, ok bool, msg string, args ...any) {
		if invariants[name] = ok; !ok {
			fails = append(fails, fmt.Sprintf(msg, args...))
		}
	}
	gate("spans_assembled", asm.Spans > 0 && len(asm.Generations) > 0, "no spans assembled")
	gate("no_orphan_spans", asm.Orphans == 0, "%d orphan spans", asm.Orphans)
	gate("ring_not_wrapped", rec.Published() <= uint64(rec.Cap()),
		"ring wrapped (%d published > %d capacity): resize -flight", rec.Published(), rec.Cap())
	for _, stage := range []string{"encode", "absorb", "recode"} {
		found := false
		for i := range asm.Generations {
			found = found || asm.Generations[i].StageTotal(stage) > 0
		}
		gate("stage_"+stage, found, "no generation carries stage %q", stage)
	}
	gate("exemplar_linked", linked, "no histogram exemplar links to a trace in the dump")
	for _, kind := range []string{"admission", "reconnect"} {
		gate("flight_"+kind, kinds[kind] > 0, "flight ring holds no %s events", kind)
	}
	gate("disabled_path_alloc_free", tg.allocs == 0, "disabled path allocates (%.1f allocs/op, want 0)", tg.allocs)
	gate("encode_batch_ratio", tg.bench == "", "%s", tg.bench)
	if len(fails) > 0 {
		return fmt.Errorf("trace smoke failed (seed %d):\n  - %s", r.seed, strings.Join(fails, "\n  - "))
	}
	fmt.Fprintf(r.out, "trace smoke ok (seed %d): %d generations, %d spans, 0 orphans, %d exemplars, flight %v\n",
		r.seed, len(asm.Generations), asm.Spans, exemplars, kinds)
	return nil
}

// disabledPathAllocs measures the per-operation allocation count of every
// tracing entry point with the recorder and span sink off — the state all
// untraced production binaries run in. The budget is zero.
func disabledPathAllocs() float64 {
	st := obs.StageOf("nc.disabled_probe")
	return testing.AllocsPerRun(1000, func() {
		sp := trace.Begin("probe", "probe", 1, 0, -1)
		sp.End()
		trace.Emit(trace.KindShed, "probe", "probe", -1, 0)
		ssp := st.Start()
		ssp.End()
	})
}

// benchGate re-measures the batched encoder's speedup over the single-block
// reference at the paper's streaming shape, in the units BENCH_host.json
// commits (encode_batch_over_single_ref_pct), and fails when the multiple
// falls more than tol below the committed one — cmd/benchjson's floor rule,
// loose enough for other machines and race builds — the backstop ensuring
// the tracing seams never tax the codec hot path.
// Returns a failure message, or "" when the gate passes or no baseline file
// is available to compare against.
func benchGate(path string, tol float64, stdout io.Writer) string {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(stdout, "bench gate skipped: %v\n", err)
		return ""
	}
	var doc struct {
		Derived map[string]float64 `json:"derived"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Sprintf("bench baseline %s unreadable: %v", path, err)
	}
	ref, ok := doc.Derived["encode_batch_over_single_ref_pct"]
	if !ok || ref <= 0 {
		fmt.Fprintf(stdout, "bench gate skipped: %s has no encode_batch_over_single_ref_pct\n", path)
		return ""
	}

	p := rlnc.Params{BlockCount: 128, BlockSize: 4096}
	rng := rand.New(rand.NewSource(33))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := rlnc.SegmentFromData(1, p, data)
	if err != nil {
		return fmt.Sprintf("bench gate: %v", err)
	}
	const batch = 32
	coeffs := make([][]byte, batch)
	dsts := make([][]byte, batch)
	for i := range coeffs {
		coeffs[i] = make([]byte, p.BlockCount)
		for j := range coeffs[i] {
			coeffs[i][j] = byte(1 + rng.Intn(255))
		}
		dsts[i] = make([]byte, p.BlockSize)
	}
	single := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range dsts {
				encodeSingleRef(dsts[j], seg, coeffs[j])
			}
		}
	})
	batched := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := rlnc.EncodeBatchInto(dsts, seg, coeffs); err != nil {
				b.Fatal(err)
			}
		}
	})
	if single.NsPerOp() <= 0 || batched.NsPerOp() <= 0 {
		return "bench gate: degenerate measurement"
	}
	mult := float64(single.NsPerOp()) / float64(batched.NsPerOp())
	floor := (1 + ref/100) * (1 - tol)
	fmt.Fprintf(stdout, "bench gate: encode batch over single-ref = %+.1f%% (committed %+.1f%%, floor %+.1f%%)\n",
		(mult-1)*100, ref, (floor-1)*100)
	if mult < floor {
		return fmt.Sprintf("encode batch over single-ref %+.1f%% below floor %+.1f%% (committed %+.1f%%)",
			(mult-1)*100, (floor-1)*100, ref)
	}
	return ""
}

// encodeSingleRef is the seed single-block encode — one MulAddSlice sweep
// per coded block — mirrored from the rlnc benchmark baseline so the gate
// measures the same ratio the committed BENCH_host.json derives.
func encodeSingleRef(dst []byte, seg *rlnc.Segment, coeffs []byte) {
	k := seg.Params().BlockSize
	clear(dst[:k])
	for i, c := range coeffs {
		if c != 0 {
			gf256.MulAddSlice(dst[:k], seg.Block(i), c)
		}
	}
}
