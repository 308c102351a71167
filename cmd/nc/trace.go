package main

import (
	"fmt"
	"strings"

	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
)

// exemplarStages are the tail histograms the exemplar gate watches:
// origin/relay writev flushes and leaf record decodes.
var exemplarStages = []string{"netio.record_send", "fetch.record_decode"}

// checkTrace reassembles the flight ring of a finished traced run into
// per-generation latency (encode, queue offer, writev flush, relay recode,
// leaf absorb) and gates it: zero orphan spans across all three tiers, no ring
// wrap, every codec stage present, a histogram exemplar whose trace is in the
// dump, and admission and reconnect events in the ring.
func checkTrace(r *meshRun, reg *obs.Registry, invariants map[string]bool) error {
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
	if len(fails) > 0 {
		return fmt.Errorf("trace smoke failed (seed %d):\n  - %s", r.seed, strings.Join(fails, "\n  - "))
	}
	fmt.Fprintf(r.out, "trace smoke ok (seed %d): %d generations, %d spans, 0 orphans, %d exemplars, flight %v\n",
		r.seed, len(asm.Generations), asm.Spans, exemplars, kinds)
	return nil
}
