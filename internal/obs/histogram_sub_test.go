package obs

import (
	"sync"
	"testing"
	"time"
)

// TestSubEmptyWindow covers `nc load`'s windowed-quantile path when nothing
// was observed between the two snapshots.
func TestSubEmptyWindow(t *testing.T) {
	var h Histogram
	h.Observe(time.Millisecond)
	h.Observe(10 * time.Millisecond)
	v1 := h.View()
	v2 := h.View()
	d := v2.Sub(v1)
	if d.Count != 0 || d.Sum != 0 {
		t.Fatalf("empty window delta: count=%d sum=%v, want zeros", d.Count, d.Sum)
	}
	for i, n := range d.Buckets {
		if n != 0 {
			t.Fatalf("bucket %d delta %d, want 0", i, n)
		}
	}
	if d.P50 != 0 || d.P99 != 0 {
		t.Fatalf("empty window quantiles p50=%v p99=%v, want zeros", d.P50, d.P99)
	}
	// Max is the later view's running max by contract.
	if d.Max != v2.Max {
		t.Fatalf("Max = %v, want running max %v", d.Max, v2.Max)
	}
}

// TestSubIdenticalSnapshots subtracts a snapshot from itself.
func TestSubIdenticalSnapshots(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	v := h.View()
	d := v.Sub(v)
	if d.Count != 0 || d.Sum != 0 || d.P50 != 0 {
		t.Fatalf("self-subtraction not zero: %+v", d)
	}
}

// TestSubWindowQuantiles sanity-checks that a window's quantiles reflect
// only the observations inside the window.
func TestSubWindowQuantiles(t *testing.T) {
	var h Histogram
	for i := 0; i < 50; i++ {
		h.Observe(time.Microsecond) // old fast observations
	}
	v1 := h.View()
	for i := 0; i < 50; i++ {
		h.Observe(100 * time.Millisecond) // slow window
	}
	d := h.View().Sub(v1)
	if d.Count != 50 {
		t.Fatalf("window count %d, want 50", d.Count)
	}
	if d.P50 < 50*time.Millisecond {
		t.Fatalf("window p50 %v contaminated by pre-window samples", d.P50)
	}
}

// TestSubNeverNegativeUnderRace hammers Observe from writers while the main
// goroutine takes back-to-back snapshots: no delta may ever go negative,
// even when a snapshot lands mid-Observe (count ahead of bucket adds). Run
// with -race this also guards the snapshot path itself.
func TestSubNeverNegativeUnderRace(t *testing.T) {
	var h Histogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := time.Duration(w+1) * 100 * time.Nanosecond
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(d)
				}
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	prev := h.View()
	for time.Now().Before(deadline) {
		cur := h.View()
		d := cur.Sub(prev)
		if d.Count < 0 || d.Sum < 0 {
			t.Fatalf("negative aggregate delta: count=%d sum=%v", d.Count, d.Sum)
		}
		for i, n := range d.Buckets {
			if n < 0 {
				t.Fatalf("negative bucket delta at %d: %d", i, n)
			}
		}
		prev = cur
	}
	close(stop)
	wg.Wait()
}

func TestExemplarCapture(t *testing.T) {
	var h Histogram
	if _, ok := h.Exemplar(); ok {
		t.Fatal("fresh histogram must have no exemplar")
	}
	// Capture disabled: traced observations record but never capture.
	h.ObserveTraced(time.Millisecond, 7, 8)
	if _, ok := h.Exemplar(); ok {
		t.Fatal("exemplar captured while disabled")
	}
	h.EnableExemplars(0.99)
	// Zero trace IDs are never candidates.
	h.ObserveTraced(time.Second, 0, 9)
	if _, ok := h.Exemplar(); ok {
		t.Fatal("exemplar captured for zero trace ID")
	}
	// The threshold starts at bucket 0, so the first traced observation is
	// always captured.
	h.ObserveTraced(2*time.Millisecond, 11, 12)
	ex, ok := h.Exemplar()
	if !ok {
		t.Fatal("no exemplar after traced observation")
	}
	if ex.TraceID != 11 || ex.SpanID != 12 || ex.Value != 2*time.Millisecond {
		t.Fatalf("exemplar = %+v", ex)
	}
}

// TestExemplarPrefersTail floods the histogram with fast observations and a
// few slow outliers: once the threshold refreshes, only tail observations
// replace the exemplar.
func TestExemplarPrefersTail(t *testing.T) {
	var h Histogram
	h.EnableExemplars(0.99)
	// 98% fast observations with a 2% slow tail: the refreshed p99 threshold
	// bucket lands in the tail, so fast observations stop qualifying.
	for i := 0; i < 1000; i++ {
		d := time.Microsecond
		if i%50 == 0 {
			d = 100 * time.Millisecond
		}
		h.ObserveTraced(d, 1, uint64(i+1))
	}
	// Threshold has been refreshed from the flood; a fast observation must
	// no longer displace the exemplar once a slow one lands.
	h.ObserveTraced(time.Second, 42, 4242)
	h.ObserveTraced(time.Microsecond, 2, 2)
	ex, ok := h.Exemplar()
	if !ok {
		t.Fatal("no exemplar captured")
	}
	if ex.TraceID != 42 || ex.SpanID != 4242 {
		t.Fatalf("tail exemplar displaced by fast observation: %+v", ex)
	}
}

func TestObserveTracedMatchesObserve(t *testing.T) {
	var a, b Histogram
	b.EnableExemplars(0.5)
	for i := 0; i < 100; i++ {
		d := time.Duration(i) * time.Millisecond
		a.Observe(d)
		b.ObserveTraced(d, uint64(i+1), uint64(i+1))
	}
	va, vb := a.View(), b.View()
	if va.Count != vb.Count || va.Sum != vb.Sum || va.Buckets != vb.Buckets {
		t.Fatal("ObserveTraced diverged from Observe on the histogram itself")
	}
}
