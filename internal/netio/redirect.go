package netio

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
)

// Redirector is a mutable dial target: its Dial method satisfies DialFunc,
// but the address it connects to can be swapped at any time by a control
// plane. A leaf fetcher built over a Redirector keeps all the resilience of
// the Fetcher — reconnect with backoff, rank carried across connections —
// and gains re-routing for free: when the mesh coordinator detects a dead
// relay it calls SetTarget with a healthy one, and the fetcher's very next
// reconnect lands there. Because the Fetcher insists on an identical session
// header across reconnects, a Redirector must only ever be pointed at
// servers declaring the same SessionInfo.
//
// Safe for concurrent use: SetTarget may race with in-flight Dial calls
// (each dial snapshots the target once).
type Redirector struct {
	mu     sync.Mutex
	target string

	dialer    net.Dialer
	redirects atomic.Int64
	dials     atomic.Int64
}

// NewRedirector returns a Redirector initially pointed at target
// (a "host:port" TCP address).
func NewRedirector(target string) *Redirector {
	return &Redirector{target: target}
}

// Target returns the address the next Dial will connect to.
func (r *Redirector) Target() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.target
}

// SetTarget re-points the Redirector at addr; subsequent Dial calls connect
// there. It reports whether the target actually changed (a no-op re-point
// at the current target is not counted as a redirect). The redirect count is
// bumped inside the same critical section that swaps the target, so an
// observer reading Target then Redirects never sees a new target with a
// stale count or vice versa.
func (r *Redirector) SetTarget(addr string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if addr == r.target {
		return false
	}
	r.target = addr
	r.redirects.Add(1)
	return true
}

// Redirects returns how many times SetTarget changed the target.
func (r *Redirector) Redirects() int64 { return r.redirects.Load() }

// Dials returns how many connection attempts have been made through the
// Redirector.
func (r *Redirector) Dials() int64 { return r.dials.Load() }

// Dial connects to the current target. It is a DialFunc: pass r.Dial to
// NewFetcherFromConfig. The target snapshot and the dial count share one critical
// section, so a SetTarget racing an in-flight Dial either lands entirely
// before the attempt (which then dials the new target) or entirely after —
// never a dial accounted against a target it did not use.
func (r *Redirector) Dial(ctx context.Context) (net.Conn, error) {
	r.mu.Lock()
	target := r.target
	r.dials.Add(1)
	r.mu.Unlock()
	return r.dialer.DialContext(ctx, "tcp", target)
}
