package netio

import (
	"time"

	"extremenc/internal/obs"
)

// Counters is a lock-free set of serving counters backed by obs metric
// values. The session server (server.go) increments one per Server, and
// stream.Server routes its modeled serving totals through the same type, so
// every serving surface in the repository reports traffic in one vocabulary.
// Register attaches the counters to an obs.Registry for scraping; the typed
// View stays a thin read over the same storage either way. All methods are
// safe for concurrent use; reads through View are monotonic but not mutually
// atomic (a snapshot taken mid-increment can be off by the blocks in
// flight).
type Counters struct {
	blocksEncoded obs.Counter
	blocksOffered obs.Counter
	blocksSent    obs.Counter
	blocksShed    obs.Counter
	bytesSent     obs.Counter
	encodeStallNs obs.Counter
	maxStallNs    obs.Gauge
}

// Register attaches every counter to reg under prefix (e.g. "netio" yields
// "netio.blocks_sent"). The counters work identically unregistered;
// registration only adds them to the exposition. It fails if the names are
// already taken — each Counters instance needs its own registry or prefix.
func (c *Counters) Register(reg *obs.Registry, prefix string) error {
	for _, m := range []struct {
		name, help string
		c          *obs.Counter
	}{
		{"blocks_encoded", "coded blocks produced by the encoder", &c.blocksEncoded},
		{"blocks_offered", "blocks offered to delivery queues", &c.blocksOffered},
		{"blocks_sent", "blocks fully written to peers", &c.blocksSent},
		{"blocks_shed", "blocks dropped by a failed write or left queued at session teardown", &c.blocksShed},
		{"bytes_sent", "wire bytes fully written to peers", &c.bytesSent},
		{"encode_stall_ns", "total nanoseconds the encoder pump spent blocked", &c.encodeStallNs},
	} {
		if err := reg.RegisterCounter(prefix+"."+m.name, m.help, m.c); err != nil {
			return err
		}
	}
	return reg.RegisterGauge(prefix+".encode_stall_max_ns",
		"longest single encoder-pump stall in nanoseconds", &c.maxStallNs)
}

// AddEncoded records n freshly encoded coded blocks.
func (c *Counters) AddEncoded(n int64) { c.blocksEncoded.Add(n) }

// AddOffered records n blocks offered to a delivery queue.
func (c *Counters) AddOffered(n int64) { c.blocksOffered.Add(n) }

// AddSent records n blocks (bytes wire bytes) fully written to a peer.
func (c *Counters) AddSent(n, bytes int64) {
	c.blocksSent.Add(n)
	c.bytesSent.Add(bytes)
}

// AddShed records n blocks dropped instead of delivered: a failed write, or a
// queue residue at session teardown. A full queue sheds nothing — the pump
// parks, and the wait is charged by AddEncodeStall — and RLNC streams lose
// nothing but time when blocks vanish.
func (c *Counters) AddShed(n int64) { c.blocksShed.Add(n) }

// AddEncodeStall records one interval the encoder pump spent blocked because
// no session could accept a block.
func (c *Counters) AddEncodeStall(d time.Duration) {
	ns := d.Nanoseconds()
	c.encodeStallNs.Add(ns)
	c.maxStallNs.SetMax(ns)
}

// CounterView is a point-in-time copy of a Counters. Its JSON keys are the
// registry's series names without the prefix.
type CounterView struct {
	BlocksEncoded  int64         `json:"blocks_encoded"`
	BlocksOffered  int64         `json:"blocks_offered"`
	BlocksSent     int64         `json:"blocks_sent"`
	BlocksShed     int64         `json:"blocks_shed"`
	BytesSent      int64         `json:"bytes_sent"`
	EncodeStall    time.Duration `json:"encode_stall_ns"`
	MaxEncodeStall time.Duration `json:"encode_stall_max_ns"`
}

// View copies the counters.
func (c *Counters) View() CounterView {
	return CounterView{
		BlocksEncoded:  c.blocksEncoded.Load(),
		BlocksOffered:  c.blocksOffered.Load(),
		BlocksSent:     c.blocksSent.Load(),
		BlocksShed:     c.blocksShed.Load(),
		BytesSent:      c.bytesSent.Load(),
		EncodeStall:    time.Duration(c.encodeStallNs.Load()),
		MaxEncodeStall: time.Duration(c.maxStallNs.Load()),
	}
}

// Add merges two traffic ledgers, as a relay folds in the servers a restart
// retired: counters add, the stall high-water mark takes the max.
func (v CounterView) Add(o CounterView) CounterView {
	return CounterView{
		BlocksEncoded:  v.BlocksEncoded + o.BlocksEncoded,
		BlocksOffered:  v.BlocksOffered + o.BlocksOffered,
		BlocksSent:     v.BlocksSent + o.BlocksSent,
		BlocksShed:     v.BlocksShed + o.BlocksShed,
		BytesSent:      v.BytesSent + o.BytesSent,
		EncodeStall:    v.EncodeStall + o.EncodeStall,
		MaxEncodeStall: max(v.MaxEncodeStall, o.MaxEncodeStall),
	}
}

// Consistent reports whether the offered-block ledger balances:
// Offered == Sent + Shed.
//
// This invariant is only guaranteed once every session has ended (after
// Server.Shutdown, or once Serve returns and the sessions drain): each
// offered block is then either fully written or explicitly shed. A view
// taken while sessions are live may see offered blocks still sitting in
// queues — neither sent nor shed yet — so Consistent can legitimately be
// false mid-flight; live snapshots should assert the weaker
// Offered >= Sent + Shed instead. The serving tests use this helper rather
// than re-deriving the equality.
func (v CounterView) Consistent() bool {
	return v.BlocksOffered == v.BlocksSent+v.BlocksShed
}

// SessionSnapshot describes one live session.
type SessionSnapshot struct {
	ID       int64         `json:"id"`
	Addr     string        `json:"addr"`
	QueueLen int           `json:"queue_len"`
	QueueCap int           `json:"queue_cap"`
	Offered  int64         `json:"offered"`
	Sent     int64         `json:"sent"`
	Shed     int64         `json:"shed"`
	Bytes    int64         `json:"bytes"`
	Duration time.Duration `json:"duration_ns"`
}

// SnapshotVersion is the schema version of the Snapshot struct. Version 2
// added the version field itself, a ledger per encoder pump, and the pump
// feeding each session. Version 3 added the graceful-degradation surface:
// admission-decision counters, the overload ladder's rung and transition
// count, and the draining flag. Version 4 dropped the rung and the transition
// count with the ladder they reported: credit bounds what the pumps encode.
// Version 5 dropped the per-pump ledger and the session's pump again: a server
// runs one pump. Version 6 dropped the REDIRECT decision count with the
// decision: a draining server answers BUSY.
const SnapshotVersion = 6

// Snapshot is the server-wide observability surface: the server's counters
// and one entry per live session. Counters for finished sessions remain in
// the aggregates. Once every session has ended, CounterView.Consistent holds
// exactly — each offered block was either fully written or explicitly shed
// (failed write or teardown residue) — which the serving tests assert
// block-for-block; while sessions are live, queued blocks make the
// ledger lag and only Offered >= Sent + Shed is guaranteed.
type Snapshot struct {
	Version          int      `json:"version"` // SnapshotVersion of the producing server
	Mode             WireMode `json:"mode"`    // session coding discipline declared in handshakes
	Sessions         int      `json:"sessions"`
	SessionsTotal    int64    `json:"sessions_total"`
	SessionsRejected int64    `json:"sessions_rejected"`
	SessionSeconds   float64  `json:"session_seconds"` // summed wall-clock duration of finished sessions

	// Graceful-degradation surface (version 3): BUSY decisions written to
	// new connections, and whether a Drain is in progress.
	AdmissionBusy int64 `json:"admission_busy"`
	Draining      bool  `json:"draining"`

	CounterView

	PerSession []SessionSnapshot `json:"per_session"`
}
