package mesh

import (
	"context"
	"time"

	"extremenc/internal/obs"
)

// Remediator closes the control loop: each period it runs a health sweep,
// then walks the leaf routing table and re-routes every leaf whose relay is
// no longer active. The leaf itself never learns any of this happened — its
// fetcher was already reconnect-looping against the dead address with
// backoff, and the re-pointed route simply makes the next attempt land
// somewhere alive, rank intact.
type Remediator struct {
	health *Health
	coord  *Coordinator
	every  time.Duration

	remediations obs.Counter
	sweeps       obs.Counter
}

// NewRemediator returns a remediation loop running a sweep every period.
func NewRemediator(health *Health, coord *Coordinator, every time.Duration) *Remediator {
	if every <= 0 {
		every = 25 * time.Millisecond
	}
	return &Remediator{health: health, coord: coord, every: every}
}

// Instrument registers the remediation counters into reg under the "mesh"
// prefix.
func (r *Remediator) Instrument(reg *obs.Registry) error {
	if err := reg.RegisterCounter("mesh.remediations_total",
		"leaves moved off unhealthy relays", &r.remediations); err != nil {
		return err
	}
	return reg.RegisterCounter("mesh.health_sweeps_total",
		"health sweeps executed by the remediation loop", &r.sweeps)
}

// Remediations returns how many leaf re-routes remediation has performed.
func (r *Remediator) Remediations() int64 { return r.remediations.Load() }

// Step runs one sweep-and-reroute pass, returning how many leaves it moved.
func (r *Remediator) Step() int {
	r.sweeps.Inc()
	r.health.Sweep()
	moved := 0
	for leaf, relayID := range r.coord.Routes() {
		state, ok := r.coord.pool.StateOf(relayID)
		if ok && state == StateActive {
			continue
		}
		// Suspect, dead, or vanished: move the leaf. No alternative relay is
		// not an error — the route stays put and the next sweep retries.
		if changed, err := r.coord.Reroute(leaf, relayID); err == nil && changed {
			r.remediations.Inc()
			moved++
		}
	}
	return moved
}

// Run executes Step every period until ctx ends.
func (r *Remediator) Run(ctx context.Context) {
	t := time.NewTicker(r.every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			r.Step()
		}
	}
}
