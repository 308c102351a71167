// Package trace is a dependency-free distributed-tracing and flight-recorder
// subsystem for the coded serving path. It follows the same discipline as
// obs.StageOf: when disabled the hot-path cost is one atomic load and zero
// allocations, so tracing can stay compiled into every binary.
//
// Two primitives share one fixed-size ring:
//
//   - Spans: timed intervals (encode round, queue offer, writev flush, dial,
//     record absorb) linked into a causal tree by (Trace, Span, Parent) IDs.
//     IDs are process-local uint64s; the wire layer carries them across nodes
//     so one generation's records stay linkable origin → relay → leaf.
//   - Flight events: point-in-time facts (admission decisions, sheds,
//     reconnects, rank milestones, drains, fault injections)
//     recorded for postmortems when a chaos gate fails.
//
// The recorder is lock-free: a slice of atomic event pointers indexed by a
// monotonically increasing sequence counter. Writers allocate one immutable
// Event and publish it with a single pointer store; readers snapshot whatever
// pointers exist. Wrap-around discards the oldest events — size the ring for
// the window you want to keep (Dump reports drops).
package trace

import (
	"encoding/json"
	"sort"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end transfer. A trace is minted at the
// origin server and propagated downstream through the XNCP handshake.
type TraceID uint64

// SpanID identifies one span within a trace. The zero SpanID means "no
// parent" (a root span).
type SpanID uint64

// Kind classifies a recorded event.
type Kind uint8

const (
	// KindSpan is a completed timed span.
	KindSpan Kind = iota
	// KindAdmission is a server admission decision (accept/busy).
	KindAdmission
	// KindShed is a batch of frames dropped by a failed write or left queued
	// at session teardown.
	KindShed
	// KindReconnect is a fetcher re-establishing a session.
	KindReconnect
	// KindRank is a decoder rank milestone (a segment reaching full rank).
	KindRank
	// KindDrain is a server entering its drain window.
	KindDrain
	// KindFault is an injected fault (reset/stall/corrupt) from faultnet.
	KindFault
)

var kindNames = [...]string{
	KindSpan:      "span",
	KindAdmission: "admission",
	KindShed:      "shed",
	KindReconnect: "reconnect",
	KindRank:      "rank",
	KindDrain:     "drain",
	KindFault:     "fault",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalJSON renders the kind as its string name so dumps stay readable.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON accepts either the string name or the numeric value.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		for i, n := range kindNames {
			if n == s {
				*k = Kind(i)
				return nil
			}
		}
		return nil
	}
	var n uint8
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	*k = Kind(n)
	return nil
}

// Event is one recorded fact. Events are immutable once published.
type Event struct {
	// Seq is the global publication order (gaps mean ring wrap).
	Seq uint64 `json:"seq"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// TS is the wall-clock time in Unix nanoseconds. For spans this is the
	// END time; subtract Dur for the start.
	TS int64 `json:"ts_ns"`
	// Node labels the emitting component ("origin", "relay-1", "leaf-3").
	Node string `json:"node"`
	// Stage is the span name, or a short detail string for flight events.
	Stage string `json:"stage,omitempty"`
	// Trace/Span/Parent link spans into a causal tree. Zero means unset.
	Trace  TraceID `json:"trace,omitempty"`
	Span   SpanID  `json:"span,omitempty"`
	Parent SpanID  `json:"parent,omitempty"`
	// Seg is the segment (generation) index, or -1 when not applicable.
	Seg int32 `json:"seg"`
	// Value carries a kind-specific magnitude (shed count, rung, rank...).
	Value int64 `json:"value,omitempty"`
	// Dur is the span duration (zero for flight events).
	Dur time.Duration `json:"dur_ns,omitempty"`
}

// Start returns the span's start time in Unix nanoseconds.
func (e *Event) Start() int64 { return e.TS - int64(e.Dur) }

// Recorder is a fixed-size lock-free ring of events plus the ID allocator
// for traces and spans. All methods are safe for concurrent use.
type Recorder struct {
	slots []atomic.Pointer[Event]
	mask  uint64
	seq   atomic.Uint64 // next sequence number == events published
	ids   atomic.Uint64 // shared trace/span ID allocator; 0 reserved
}

// NewRecorder returns a recorder whose ring holds size events (rounded up
// to a power of two, minimum 64).
func NewRecorder(size int) *Recorder {
	n := 64
	for n < size {
		n <<= 1
	}
	return &Recorder{slots: make([]atomic.Pointer[Event], n), mask: uint64(n - 1)}
}

// Cap returns the ring capacity in events.
func (r *Recorder) Cap() int { return len(r.slots) }

// Published returns the total number of events recorded, including any
// since overwritten by ring wrap.
func (r *Recorder) Published() uint64 { return r.seq.Load() }

func (r *Recorder) record(e *Event) {
	e.Seq = r.seq.Add(1) - 1
	r.slots[e.Seq&r.mask].Store(e)
}

// Events snapshots the ring, sorted by sequence number. The snapshot is not
// a consistent cut (standard for lock-free collectors) but every returned
// event is internally consistent because events are immutable.
func (r *Recorder) Events() []Event {
	out := make([]Event, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// active is the process-global recorder; nil means tracing is disabled and
// every entry point degrades to one atomic load.
var active atomic.Pointer[Recorder]

// Enable installs a fresh process-global recorder with the given ring size
// and returns it. Passing the result around is optional — the package-level
// entry points find it via one atomic load.
func Enable(size int) *Recorder {
	r := NewRecorder(size)
	active.Store(r)
	return r
}

// Disable removes the global recorder. In-flight spans complete as no-ops
// against their captured recorder.
func Disable() { active.Store(nil) }

// Enabled reports whether a global recorder is installed.
func Enabled() bool { return active.Load() != nil }

// Active returns the global recorder, or nil when disabled.
func Active() *Recorder { return active.Load() }

// NewTrace mints a fresh trace ID, or 0 when tracing is disabled.
func NewTrace() TraceID {
	r := active.Load()
	if r == nil {
		return 0
	}
	return TraceID(r.ids.Add(1))
}

// Span is an in-flight timed interval. The zero Span (returned when tracing
// is disabled) is inert: ID() is 0 and End() does nothing, so call sites
// never branch.
type Span struct {
	r      *Recorder
	node   string
	stage  string
	tr     TraceID
	id     SpanID
	parent SpanID
	seg    int32
	t0     time.Time
}

// Begin starts a span. When tracing is disabled this is one atomic load and
// zero allocations. seg is the segment index, or -1 when not applicable.
func Begin(node, stage string, tr TraceID, parent SpanID, seg int32) Span {
	r := active.Load()
	if r == nil {
		return Span{}
	}
	return Span{
		r:      r,
		node:   node,
		stage:  stage,
		tr:     tr,
		id:     SpanID(r.ids.Add(1)),
		parent: parent,
		seg:    seg,
		t0:     time.Now(),
	}
}

// ID returns the span's ID (0 for the inert span), available immediately so
// it can parent children or be stamped into record framing before End.
func (s Span) ID() SpanID { return s.id }

// Active reports whether the span will record on End.
func (s Span) Active() bool { return s.r != nil }

// End publishes the completed span.
func (s Span) End() {
	if s.r == nil {
		return
	}
	now := time.Now()
	s.r.record(&Event{
		Kind:   KindSpan,
		TS:     now.UnixNano(),
		Node:   s.node,
		Stage:  s.stage,
		Trace:  s.tr,
		Span:   s.id,
		Parent: s.parent,
		Seg:    s.seg,
		Dur:    now.Sub(s.t0),
	})
}

// Emit records a flight event. When tracing is disabled this is one atomic
// load and zero allocations. seg is the segment index or -1; value carries
// a kind-specific magnitude.
func Emit(k Kind, node, detail string, seg int32, value int64) {
	r := active.Load()
	if r == nil {
		return
	}
	r.record(&Event{
		Kind:  k,
		TS:    time.Now().UnixNano(),
		Node:  node,
		Stage: detail,
		Seg:   seg,
		Value: value,
	})
}

// Dump snapshots the global recorder's events (nil when disabled).
func Dump() []Event {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.Events()
}

// DumpDoc is the JSON shape of a flight-recorder dump.
type DumpDoc struct {
	Enabled    bool    `json:"enabled"`
	CapturedAt int64   `json:"captured_at_ns"`
	Capacity   int     `json:"capacity"`
	Published  uint64  `json:"published"`
	Events     []Event `json:"events"`
}

// DumpJSON renders the global recorder as indented JSON, suitable for the
// /debug/flight route, SIGQUIT handlers, and gate-failure artifacts. It
// always returns a valid document, even when tracing is disabled.
func DumpJSON() []byte {
	doc := DumpDoc{CapturedAt: time.Now().UnixNano()}
	if r := active.Load(); r != nil {
		doc.Enabled = true
		doc.Capacity = r.Cap()
		doc.Published = r.Published()
		doc.Events = r.Events()
	}
	if doc.Events == nil {
		doc.Events = []Event{}
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		// The document is built from plain values; marshalling cannot fail.
		return []byte(`{"enabled":false,"events":[]}`)
	}
	return b
}
