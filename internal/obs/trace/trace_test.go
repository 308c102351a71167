package trace

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// swap installs a fresh recorder for one test and restores the previous
// global state afterwards, so tests can run in any order.
func swap(t *testing.T, size int) *Recorder {
	t.Helper()
	prev := active.Load()
	r := Enable(size)
	t.Cleanup(func() { active.Store(prev) })
	return r
}

func TestDisabledPathInert(t *testing.T) {
	prev := active.Load()
	Disable()
	t.Cleanup(func() { active.Store(prev) })

	sp := Begin("n", "stage", 1, 2, 0)
	if sp.Active() || sp.ID() != 0 {
		t.Fatalf("disabled Begin returned live span: %+v", sp)
	}
	sp.End()
	Emit(KindShed, "n", "", -1, 3)
	if NewTrace() != 0 {
		t.Fatal("disabled NewTrace must return 0")
	}
	if Dump() != nil {
		t.Fatal("disabled Dump must return nil")
	}
	var doc DumpDoc
	if err := json.Unmarshal(DumpJSON(), &doc); err != nil {
		t.Fatalf("disabled DumpJSON invalid: %v", err)
	}
	if doc.Enabled || len(doc.Events) != 0 {
		t.Fatalf("disabled DumpJSON = %+v", doc)
	}
}

func TestDisabledPathZeroAlloc(t *testing.T) {
	prev := active.Load()
	Disable()
	t.Cleanup(func() { active.Store(prev) })

	if n := testing.AllocsPerRun(200, func() {
		sp := Begin("node", "stage", 7, 9, 3)
		sp.End()
		Emit(KindDrain, "node", "relay-1:9000", -1, 1)
		_ = NewTrace()
	}); n != 0 {
		t.Fatalf("disabled path allocates %.1f/op, want 0", n)
	}
}

func TestSpanRecordsTree(t *testing.T) {
	swap(t, 64)
	tr := NewTrace()
	root := Begin("origin", "serve", tr, 0, -1)
	child := Begin("origin", "encode", tr, root.ID(), 2)
	time.Sleep(time.Millisecond)
	child.End()
	root.End()

	evs := Dump()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	if evs[0].Stage != "encode" || evs[0].Parent != root.ID() || evs[0].Seg != 2 {
		t.Fatalf("child event wrong: %+v", evs[0])
	}
	if evs[0].Dur < time.Millisecond {
		t.Fatalf("child duration %v, want >= 1ms", evs[0].Dur)
	}
	if evs[0].Start() != evs[0].TS-int64(evs[0].Dur) {
		t.Fatal("Start() inconsistent with TS/Dur")
	}
	if evs[1].Stage != "serve" || evs[1].Parent != 0 || evs[1].Seg != -1 {
		t.Fatalf("root event wrong: %+v", evs[1])
	}
	if evs[0].Trace != tr || evs[1].Trace != tr {
		t.Fatal("trace ID not propagated")
	}
}

func TestIDsUnique(t *testing.T) {
	swap(t, 64)
	seen := map[SpanID]bool{}
	for i := 0; i < 100; i++ {
		sp := Begin("n", "s", 1, 0, -1)
		if sp.ID() == 0 || seen[sp.ID()] {
			t.Fatalf("duplicate or zero span ID %d", sp.ID())
		}
		seen[sp.ID()] = true
	}
	if tr := NewTrace(); seen[SpanID(tr)] {
		t.Fatal("trace ID collided with span ID")
	}
}

func TestRingWrap(t *testing.T) {
	r := swap(t, 64) // rounds to 64 slots
	total := 200
	for i := 0; i < total; i++ {
		Emit(KindShed, "n", "", -1, int64(i))
	}
	if got := r.Published(); got != uint64(total) {
		t.Fatalf("Published = %d, want %d", got, total)
	}
	evs := r.Events()
	if len(evs) != r.Cap() {
		t.Fatalf("ring kept %d events, want %d", len(evs), r.Cap())
	}
	// Survivors must be the newest events, in order.
	for i, e := range evs {
		want := int64(total - r.Cap() + i)
		if e.Value != want {
			t.Fatalf("slot %d holds value %d, want %d", i, e.Value, want)
		}
	}
}

func TestRecorderSizeRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 64}, {1, 64}, {64, 64}, {65, 128}, {1000, 1024}} {
		if got := NewRecorder(tc.in).Cap(); got != tc.want {
			t.Fatalf("NewRecorder(%d).Cap() = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// TestConcurrentRecord hammers the ring from many goroutines under -race:
// every snapshot event must be internally consistent and sequence numbers
// strictly increasing.
func TestConcurrentRecord(t *testing.T) {
	r := swap(t, 256)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := Begin("node", "stage", TraceID(w+1), 0, int32(i%4))
				sp.End()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			evs := r.Events()
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq <= evs[i-1].Seq {
					t.Fatalf("sequence not increasing at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
				}
			}
			if r.Published() != workers*per {
				t.Fatalf("Published = %d, want %d", r.Published(), workers*per)
			}
			return
		default:
			for _, e := range r.Events() {
				if e.Kind != KindSpan || e.Node != "node" || e.Stage != "stage" {
					t.Fatalf("torn event: %+v", e)
				}
			}
		}
	}
}

func TestAssembleBreakdown(t *testing.T) {
	swap(t, 1024)
	tr := NewTrace()
	origin := Begin("origin", "serve", tr, 0, -1)
	for seg := int32(0); seg < 2; seg++ {
		round := Begin("origin", "round", tr, origin.ID(), seg)
		enc := Begin("origin", "encode", tr, round.ID(), seg)
		enc.End()
		abs := Begin("leaf-0", "absorb", tr, round.ID(), seg)
		abs.End()
		round.End()
	}
	origin.End()

	a := Assemble(Dump())
	if a.Orphans != 0 {
		t.Fatalf("orphans = %d, want 0", a.Orphans)
	}
	if a.Roots != 1 {
		t.Fatalf("roots = %d, want 1", a.Roots)
	}
	if len(a.Generations) != 2 {
		t.Fatalf("generations = %d, want 2", len(a.Generations))
	}
	g := &a.Generations[0]
	if g.Trace != tr || g.Seg != 0 {
		t.Fatalf("generation key wrong: %+v", g)
	}
	if s := g.Stage("origin", "encode"); s == nil || s.Count != 1 {
		t.Fatalf("origin/encode aggregate missing: %+v", g.Stages)
	}
	if s := g.Stage("leaf-0", "absorb"); s == nil || s.Count != 1 {
		t.Fatalf("leaf-0/absorb aggregate missing: %+v", g.Stages)
	}
	if g.Elapsed <= 0 {
		t.Fatalf("elapsed = %v, want > 0", g.Elapsed)
	}
	tab := a.Table()
	if !containsAll(tab, "trace", "encode", "absorb", "e2e", "orphans=0") {
		t.Fatalf("table missing columns:\n%s", tab)
	}
	if _, err := a.JSON(); err != nil {
		t.Fatalf("JSON: %v", err)
	}
}

func TestAssembleOrphanDetection(t *testing.T) {
	swap(t, 64)
	tr := NewTrace()
	// Child references a parent span that is never published.
	child := Begin("leaf", "absorb", tr, SpanID(9999), 0)
	child.End()
	a := Assemble(Dump())
	if a.Orphans != 1 {
		t.Fatalf("orphans = %d, want 1", a.Orphans)
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	swap(t, 64)
	Emit(KindAdmission, "origin", "busy", -1, 25)
	sp := Begin("origin", "serve", NewTrace(), 0, -1)
	sp.End()
	var doc DumpDoc
	if err := json.Unmarshal(DumpJSON(), &doc); err != nil {
		t.Fatalf("DumpJSON invalid: %v", err)
	}
	if !doc.Enabled || len(doc.Events) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if doc.Events[0].Kind != KindAdmission || doc.Events[0].Stage != "busy" {
		t.Fatalf("admission event wrong after round trip: %+v", doc.Events[0])
	}
	if doc.Events[1].Kind != KindSpan {
		t.Fatalf("span kind wrong after round trip: %+v", doc.Events[1])
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !contains(s, sub) {
			return false
		}
	}
	return true
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
