package main

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark around a seam it owns
// (the dial function, the leaf connection, the fetcher's hooks, StartRelay).
// Spans of one fetch share Trace; Parent is the span that caused this one, 0
// for a root. Times are nanoseconds since the recorder was created.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends; nothing is written
// while traffic is being measured.
type recorder struct {
	t0   time.Time
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newID reserves a span ID, so children can name a parent whose own end time
// is not known yet.
func (r *recorder) newID() uint64 { return r.next.Add(1) }

func (r *recorder) add(id, parent, trace uint64, name string, start, end time.Time) {
	s := span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds()}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap each other (two
// leaves fetching under one relay iteration) and are clipped to the parent,
// so the covered part is the length of the union, never more than the parent.
func selfTimes(spans []span) map[uint64]time.Duration {
	type iv struct{ lo, hi int64 }
	children := make(map[uint64][]iv)
	byID := make(map[uint64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := max(s.Start, p.Start), min(s.End, p.End)
		if hi > lo {
			children[p.ID] = append(children[p.ID], iv{lo, hi})
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		ivs := children[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, edge int64 = 0, s.Start
		for _, c := range ivs {
			if c.hi <= edge {
				continue
			}
			covered += c.hi - max(c.lo, edge)
			edge = c.hi
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// wireStats accumulates what the leaves' connection wrappers saw. Time
// blocked in Read is time spent waiting for the server and loopback: a high
// share of a fetch means the leaf is starved, a low share that the leaf is
// the bottleneck.
type wireStats struct {
	readWaitNs atomic.Int64
	readCalls  atomic.Int64
	readBytes  atomic.Int64
}

// wireCount is a point-in-time copy of a wireStats.
type wireCount struct{ waitNs, calls, bytes int64 }

func (w *wireStats) snapshot() wireCount {
	return wireCount{w.readWaitNs.Load(), w.readCalls.Load(), w.readBytes.Load()}
}

// countingConn wraps the leaf side of a connection in the traced run.
type countingConn struct {
	net.Conn
	stats *wireStats
}

func (c *countingConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.stats.readWaitNs.Add(time.Since(t0).Nanoseconds())
	c.stats.readCalls.Add(1)
	c.stats.readBytes.Add(int64(n))
	return n, err
}
