package netio

import (
	"fmt"
	"math/rand"
	"time"

	"extremenc/internal/obs"
	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

// ServerConfig is the complete serving configuration, and the only way to
// configure a Server: start from DefaultServerConfig, assign the fields that
// differ, and pass the value to NewServerFromConfig or
// NewSourceServerFromConfig.
//
// Zero fields marked "0 → default" are replaced during normalization; the
// other zero values are meaningful (no write deadline, no session cap) and
// taken literally, which is why callers start from DefaultServerConfig rather
// than a bare literal.
type ServerConfig struct {
	// QueueDepth bounds each session's send queue, in records (0 → 64,
	// negative → 1). The pump offers a session no more than its queue has
	// room for, so a client that drains slower than the pump produces only
	// leaves its queue full: when every owed session's queue is full the pump
	// parks and the wait is charged as encode stall. Records are shed only
	// when a write fails or a session ends with records still queued. A
	// session's sweep passes through no queue; the bound applies to the
	// records the pump offers it.
	QueueDepth int
	// WriteDeadline bounds every write the server makes: a session's
	// handshake, each record flush (a flush that misses it drops the session,
	// and what it did not write whole is shed), and a BUSY decision. Zero disables
	// deadlines (DefaultServerConfig sets 10s). The same budget bounds how
	// long a session owed nothing, with nothing queued, may stay silent —
	// neither hanging up nor writing a need record — before it is dropped;
	// zero never drops it.
	WriteDeadline time.Duration
	// MaxSessions caps concurrent sessions; connections beyond the cap are
	// answered BUSY and counted in Snapshot.SessionsRejected. Zero means
	// unlimited.
	MaxSessions int
	// Seed fixes what a media-backed server sends (0 → 1). In ModeDense it
	// is the key of the counter records the server frames, declared in each
	// session header; in ModeSystematic it seeds the repair stream. Either
	// way a fixed Seed makes the served block sequence reproducible.
	Seed int64
	// Mode is the session coding discipline declared in every handshake
	// (default ModeDense). Either way every session is first written one
	// sweep — a basis of each segment once, from a table all sessions share,
	// at the pace its connection takes them — and is then owed nothing: a
	// client that decoded from the sweep hangs up, one that lost records (or,
	// in ModeDense, was swept a rank-deficient basis) sends a need record and
	// is fed repair by the pump, with credit, queueing, shedding and
	// deadlines (see Server). In ModeDense the sweep is XNC3 counter records
	// 0…n−1, each encoded once per server, and repair is counter records from
	// index n on. In ModeSystematic the sweep is the source blocks, in the
	// compact XNC2 encoding, and repair is the GF(2) XOR repair + dense tail
	// part of rlnc.SystematicEncoder's schedule. NewSourceServerFromConfig
	// overrides Mode with the source's declared mode; its sessions are swept
	// the segments the source holds whole and owed a grant of the rest from
	// the handshake on.
	Mode WireMode
	// RetryAfter is the hint carried in BUSY admission decisions (session
	// cap, address-less drain): how long the client should wait before
	// redialing (0 → 250ms). The resilient Fetcher floors its next backoff
	// sleep at this hint.
	RetryAfter time.Duration
	// Metrics, when non-nil, registers the server's counters and session
	// gauges under the "netio" prefix, so the server scrapes alongside every
	// other obs surface. Each registry admits one server: construction fails
	// on a second registration with the same names.
	Metrics *obs.Registry
	// TraceNode, when non-empty, labels this server's spans and flight
	// events and — if the process-global trace recorder is enabled at
	// construction — turns on trace propagation: every session header
	// declares the transfer's trace context (TLV types 1 and 2), under whose
	// root span the client parents its own spans. The records after the
	// header are the bytes an untraced server writes.
	TraceNode string
	// TraceID is the transfer trace to join (0 → mint a fresh one). A relay
	// sets this to its upstream's trace so spans link across tiers.
	TraceID trace.TraceID
	// TraceParent is the parent span of this server's root span (0 → the
	// root is a trace root). A relay sets this to its upstream server's
	// root span.
	TraceParent trace.SpanID
}

// DefaultServerConfig returns the serving defaults: queue depth 64, a 10s
// write deadline, base seed 1, dense mode.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		QueueDepth:    64,
		WriteDeadline: 10 * time.Second,
		Seed:          1,
	}
}

// Validate rejects a configuration the constructors refuse: an unknown wire
// mode. Out-of-range numeric fields are not errors — normalization clamps or
// defaults them.
func (c *ServerConfig) Validate() error {
	if c.Mode > ModeSystematic {
		return fmt.Errorf("netio: unknown wire mode %d", c.Mode)
	}
	return nil
}

// normalized returns a copy with every "0 → default" field resolved. Both
// constructors call Validate first.
func (c ServerConfig) normalized() ServerConfig {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	return c
}

// ServerOption is a mutation applied on top of a ServerConfig someone else
// owns: mesh.RelayConfig.ServerOpts and mesh.Topology.RelayServerOpts take a
// list of them so a caller can adjust the downstream server a relay builds.
// Code that builds its own server assigns the fields directly.
type ServerOption func(*ServerConfig)

// FetcherConfig is the complete download-client configuration, and the only
// way to configure a Fetcher: start from DefaultFetcherConfig, assign the
// fields that differ, and pass the value to NewFetcherFromConfig. Zero
// backoff fields default during normalization.
//
// A fetch's wall-clock budget is its context: Fetch under a context deadline
// returns what it decoded so far, with an error wrapping
// context.DeadlineExceeded.
type FetcherConfig struct {
	// MaxAttempts caps total connection attempts (dials), counting the
	// first. Zero means unlimited: the fetch is bounded only by its context.
	MaxAttempts int
	// BackoffBase and BackoffMax shape the reconnect schedule: the delay
	// before retry r doubles from BackoffBase (0 → 50ms), is capped at
	// BackoffMax (0 → 2s), and is then jittered by half of itself either way
	// (still capped at BackoffMax), so a fleet of clients that lost the same
	// server does not reconnect in lockstep. The schedule resets after any
	// session that delivered records. The same schedule spaces a session's
	// need records while their grants raise no rank (see Fetcher), and
	// resets once one does.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed fixes the jitter's random source for reproducible schedules
	// (0 → a random seed).
	Seed int64
	// SessionHook, when non-nil, runs with the declared SessionInfo after
	// every successful handshake (the first connection and each reconnect),
	// before any record of that session is read. It runs on the fetch
	// goroutine, so it may call Fetcher.Ranks; Fetcher.Stats().Reconnects is
	// the number of the reconnect it follows (0 on the first connection). The
	// fetch blocks until it returns. Use WithSessionHook to add one to a
	// config that may already carry another.
	SessionHook func(SessionInfo)
	// RecordTap, when non-nil, runs with every structurally valid coded
	// block the fetch receives — after checksum, shape, and segment-range
	// checks, and after the sink (or the fetcher's own decoder) has absorbed
	// it, so Fetcher.Ranks already counts the block in hand. It also sees
	// blocks that were linearly dependent. The block is the session's reused
	// one, its payload a view of the session's read buffer, valid only during
	// the call: a tap that keeps it must Clone it. The
	// fetch blocks until the tap returns. Use WithRecordTap to add one to a
	// config that may already carry another.
	RecordTap func(*rlnc.CodedBlock)
	// Sink, when non-nil, is where the fetch's records go instead of the
	// fetcher's own per-segment decoders — a relay's recoder bank. The fetch
	// is complete when Sink.Rank reaches the generation size for every
	// segment; it builds no decoder, segment or payload (FetchResult.Payload
	// and Segments stay empty), and State and ResumeState are refused.
	Sink Sink
	// ResumeState preloads the decoders from a Fetcher.State blob saved by
	// an earlier (possibly failed) fetch of the same object, so the new
	// fetch starts from the saved per-segment rank instead of zero.
	ResumeState []byte
	// Metrics, when non-nil, registers the fetch ledger under the "fetch"
	// prefix. Each registry admits one fetcher; a second registration is
	// dropped (the typed stats still work).
	Metrics *obs.Registry
	// TraceNode labels this fetcher's spans and flight events ("" → the
	// generic "fetch"). Spans are emitted only on sessions whose header
	// declares a trace context and while the trace recorder is enabled.
	TraceNode string
}

// DefaultFetcherConfig returns the fetch defaults: unlimited attempts, 50ms
// backoff doubling to a 2s cap.
func DefaultFetcherConfig() FetcherConfig {
	return FetcherConfig{
		BackoffBase: 50 * time.Millisecond,
		BackoffMax:  2 * time.Second,
	}
}

// Validate rejects a configuration NewFetcherFromConfig would refuse:
// negative attempt budget, negative backoff, an inverted backoff range, or a
// resume state for a sink fetch.
func (c *FetcherConfig) Validate() error {
	if c.Sink != nil && c.ResumeState != nil {
		return errSinkState
	}
	if c.MaxAttempts < 0 {
		return fmt.Errorf("netio: negative attempt budget %d", c.MaxAttempts)
	}
	if c.BackoffBase < 0 || c.BackoffMax < 0 {
		return fmt.Errorf("netio: negative backoff (base %v, max %v)", c.BackoffBase, c.BackoffMax)
	}
	if c.BackoffBase > 0 && c.BackoffMax > 0 && c.BackoffBase > c.BackoffMax {
		return fmt.Errorf("netio: backoff base %v exceeds max %v", c.BackoffBase, c.BackoffMax)
	}
	return nil
}

// normalized resolves the backoff defaults and the jitter random source.
func (c FetcherConfig) normalized() (FetcherConfig, *rand.Rand) {
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	seed := c.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	return c, rand.New(rand.NewSource(seed))
}

// FetcherOption is a mutation applied on top of a FetcherConfig someone
// else owns: mesh.RelayConfig.FetchOpts and mesh.Topology.LeafFetchOpts take
// a list of them so a caller can extend the fetcher a relay or leaf builds.
// Code that builds its own fetcher assigns the fields directly. The two
// helpers below exist because they append a hook instead of assigning one.
type FetcherOption func(*FetcherConfig)

// WithSessionHook appends fn to the config's SessionHook: hooks already
// installed keep running, in installation order, before fn. A mesh relay
// uses it to learn the upstream object's shape so it can re-declare the same
// object downstream without displacing a caller's own hook.
func WithSessionHook(fn func(SessionInfo)) FetcherOption {
	return func(c *FetcherConfig) {
		if prev := c.SessionHook; prev != nil {
			c.SessionHook = func(info SessionInfo) { prev(info); fn(info) }
			return
		}
		c.SessionHook = fn
	}
}

// WithRecordTap appends fn to the config's RecordTap: taps already installed
// keep running, in installation order, before fn.
func WithRecordTap(fn func(*rlnc.CodedBlock)) FetcherOption {
	return func(c *FetcherConfig) {
		if prev := c.RecordTap; prev != nil {
			c.RecordTap = func(b *rlnc.CodedBlock) { prev(b); fn(b) }
			return
		}
		c.RecordTap = fn
	}
}
