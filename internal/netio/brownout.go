package netio

import (
	"fmt"
	"time"

	"extremenc/internal/obs/trace"
)

// BrownoutRung is one step of the server's degradation ladder. Under
// sustained pressure the controller climbs one rung per sample interval;
// under sustained calm it steps back down. Every rung is lossless by
// construction — RLNC clients need enough coded blocks, not specific ones —
// so degradation trades delivery rate and CPU, never correctness.
type BrownoutRung int32

const (
	// BrownoutOff is normal operation.
	BrownoutOff BrownoutRung = iota
	// BrownoutPaced floors the pump-round interval at PacedDelay, capping
	// the emission rate so the encoder stops amplifying the overload.
	BrownoutPaced
	// BrownoutLean additionally thins the systematic schedule: the dense
	// tail is dropped and the XOR repair rate halved, trading repair margin
	// for encode CPU. Dense-mode sources have no cheaper schedule, so for
	// them this rung only inherits the pacing.
	BrownoutLean
	// BrownoutReject additionally answers new handshakes with BUSY; live
	// sessions keep streaming.
	BrownoutReject
)

// String returns the rung's log spelling.
func (r BrownoutRung) String() string {
	switch r {
	case BrownoutOff:
		return "off"
	case BrownoutPaced:
		return "paced"
	case BrownoutLean:
		return "lean"
	case BrownoutReject:
		return "reject"
	default:
		return fmt.Sprintf("rung(%d)", int32(r))
	}
}

// BrownoutConfig tunes the overload controller. The pressure signal sampled
// every Interval is the max of three normalized components: the fraction of
// the interval the pumps spent stalled on full queues, the aggregate queue
// occupancy across live sessions, and the shed fraction of blocks offered in
// the interval. Hysteresis comes from the dead band between StepUp and
// StepDown plus the Hold requirement on the way down.
type BrownoutConfig struct {
	// Interval is the pressure sampling period; zero disables the
	// controller entirely.
	Interval time.Duration
	// PacedDelay is the pump-round floor applied from BrownoutPaced up
	// (0 → 2ms). The configured Pace still applies when it is longer.
	PacedDelay time.Duration
	// StepUp is the pressure at or above which the ladder climbs one rung
	// per interval (0 → 0.75).
	StepUp float64
	// StepDown is the pressure at or below which an interval counts as
	// calm; Hold consecutive calm intervals step the ladder down one rung
	// (0 → 0.25).
	StepDown float64
	// Hold is how many consecutive calm intervals are required per
	// step down (0 → 3).
	Hold int
	// OnTransition, when non-nil, runs on the controller goroutine after
	// every rung change with the old rung, the new rung, and the pressure
	// sample that caused it.
	OnTransition func(from, to BrownoutRung, pressure float64)
}

// withDefaults resolves the zero-value tunables.
func (c BrownoutConfig) withDefaults() BrownoutConfig {
	if c.PacedDelay <= 0 {
		c.PacedDelay = 2 * time.Millisecond
	}
	if c.StepUp <= 0 {
		c.StepUp = 0.75
	}
	if c.StepDown <= 0 {
		c.StepDown = 0.25
	}
	if c.Hold <= 0 {
		c.Hold = 3
	}
	return c
}

// brownoutController is the pure ladder state machine: one observe call per
// sample interval, no clocks or channels, so the hysteresis is unit-testable
// without a server.
type brownoutController struct {
	cfg  BrownoutConfig
	rung BrownoutRung
	calm int // consecutive intervals at or below StepDown
}

// observe feeds one pressure sample and returns the rung after it: climb one
// rung at or above StepUp, step down one after Hold consecutive intervals at
// or below StepDown, hold (and reset the calm streak) in the dead band.
func (b *brownoutController) observe(pressure float64) BrownoutRung {
	switch {
	case pressure >= b.cfg.StepUp:
		b.calm = 0
		if b.rung < BrownoutReject {
			b.rung++
		}
	case pressure <= b.cfg.StepDown:
		if b.rung > BrownoutOff {
			b.calm++
			if b.calm >= b.cfg.Hold {
				b.rung--
				b.calm = 0
			}
		}
	default:
		b.calm = 0
	}
	return b.rung
}

// brownoutSample is one reading of the raw pressure inputs: the cumulative
// counters a delta is taken over, plus the instantaneous queue occupancy.
type brownoutSample struct {
	stallNs  int64
	offered  int64
	shed     int64
	queueLen int
	queueCap int
}

// sampleBrownout reads the pressure inputs: cumulative stall/offered/shed
// from the aggregate counters and the live queue occupancy from every
// session.
func (s *Server) sampleBrownout() brownoutSample {
	v := s.counters.View()
	smp := brownoutSample{
		stallNs: int64(v.EncodeStall),
		offered: v.BlocksOffered,
		shed:    v.BlocksShed,
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for ss := range sh.sessions {
			if ss.owedNothing() && ss.q.len() == 0 {
				continue // sweeping, or satisfied: it has no queue to fill
			}
			smp.queueLen += ss.q.len()
			smp.queueCap += ss.q.cap()
		}
		sh.mu.Unlock()
	}
	return smp
}

// brownoutPressure reduces an interval's sample pair to the scalar signal:
// the max of stall fraction (stall time over interval × shards), queue
// occupancy, and shed fraction, each clamped to [0, 1].
func brownoutPressure(prev, cur brownoutSample, interval time.Duration, shards int) float64 {
	clamp := func(x float64) float64 {
		if x < 0 {
			return 0
		}
		if x > 1 {
			return 1
		}
		return x
	}
	stall := clamp(float64(cur.stallNs-prev.stallNs) / float64(interval.Nanoseconds()*int64(shards)))
	occupancy := 0.0
	if cur.queueCap > 0 {
		occupancy = clamp(float64(cur.queueLen) / float64(cur.queueCap))
	}
	shed := 0.0
	if d := cur.offered - prev.offered; d > 0 {
		shed = clamp(float64(cur.shed-prev.shed) / float64(d))
	}
	return max(stall, max(occupancy, shed))
}

// runBrownout is the controller goroutine: sample, reduce, observe, apply.
// Started by startPumps when Brownout.Interval > 0; exits with the pumps.
func (s *Server) runBrownout() {
	defer s.pumpWG.Done()
	cfg := s.cfg.Brownout
	ctl := &brownoutController{cfg: cfg}
	t := time.NewTicker(cfg.Interval)
	defer t.Stop()
	prev := s.sampleBrownout()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		cur := s.sampleBrownout()
		p := brownoutPressure(prev, cur, cfg.Interval, len(s.shards))
		prev = cur
		from := BrownoutRung(s.brownoutRung.Load())
		if to := ctl.observe(p); to != from {
			s.applyRung(from, to, p)
		}
	}
}

// applyRung publishes a rung transition: the atomic the admission check and
// pump pacing read, the lean bit on every degradable source, the transition
// counter, and the OnTransition hook. Only the controller goroutine calls it.
func (s *Server) applyRung(from, to BrownoutRung, pressure float64) {
	s.brownoutRung.Store(int32(to))
	s.brownoutTransitions.Add(1)
	trace.Emit(trace.KindBrownout, s.traceNodeName(), from.String()+"->"+to.String(), -1, int64(to))
	lean := to >= BrownoutLean
	if wasLean := from >= BrownoutLean; lean != wasLean {
		for _, src := range s.degradable {
			src.SetLean(lean)
		}
	}
	if s.cfg.Brownout.OnTransition != nil {
		s.cfg.Brownout.OnTransition(from, to, pressure)
	}
}

// Rung returns the server's current brownout rung (BrownoutOff when the
// controller is disabled).
func (s *Server) Rung() BrownoutRung {
	return BrownoutRung(s.brownoutRung.Load())
}
