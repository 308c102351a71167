// Command ncmesh boots an in-process recoding relay mesh on loopback TCP —
// the paper's relay deployment (Sec. 2: recoding without decoding) end to
// end. An origin streams coded blocks; a tier of relays recombines received
// blocks in the original source basis and re-serves them; a wave of leaves
// fetches through the relay tier with resilient reconnecting clients. A
// control plane (pool, health detector, coordinator, remediator) registers
// relays, probes liveness by heartbeat and rank progress, and re-points
// leaves off dead relays mid-transfer.
//
// Every completed leaf is byte-verified against the origin media. With
// -kill the run murders relays mid-transfer and proves remediation moved
// the leaves; with -chaos all inter-tier links run through faultnet
// corruption and resets.
//
// Usage:
//
//	ncmesh -relays 3 -leaves 4 -size 200000 -mode systematic -xor
//	ncmesh -relays 3 -leaves 4 -chaos -kill 2 -snapshot mesh.json
//	ncmesh -metrics 127.0.0.1:9100 -origin-sessions 1 -origin-pace 10ms
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"extremenc/internal/faultnet"
	"extremenc/internal/harness"
	"extremenc/internal/mesh"
	"extremenc/internal/netio"
	"extremenc/internal/rlnc"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ncmesh:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ncmesh", flag.ContinueOnError)
	relays := fs.Int("relays", 3, "relay count")
	leaves := fs.Int("leaves", 4, "leaf fetcher count")
	n := fs.Int("n", 16, "blocks per segment")
	k := fs.Int("k", 1024, "bytes per block")
	size := fs.Int("size", 200_000, "media bytes")
	modeName := fs.String("mode", "systematic", "origin wire mode: dense or systematic")
	xor := fs.Bool("xor", true, "relays recombine on the GF(2) XOR fast path (XNC2 downstream framing)")
	originSessions := fs.Int("origin-sessions", 1, "origin concurrent-session cap (0 = unlimited)")
	originPace := fs.Duration("origin-pace", 0, "origin pump-round floor, modeling a constrained uplink (0 = unpaced)")
	seed := fs.Int64("seed", 7, "PRNG seed for media, coefficients, and chaos")
	chaos := fs.Bool("chaos", false, "wrap inter-tier links in faultnet corruption + resets")
	kill := fs.Int("kill", 0, "relays to kill mid-transfer (remediation must reroute their leaves)")
	killAt := fs.Int64("kill-at", 30, "total leaf records received before the kill fires")
	warm := fs.Bool("warm", true, "wait for every relay to hold full rank before starting leaves")
	metricsAddr := fs.String("metrics", "", "HTTP address for /metrics, /metrics.json and /debug/pprof/ (empty = off)")
	snapshotPath := fs.String("snapshot", "", "write the final mesh snapshot as JSON to this file (- for stdout)")
	flight := fs.Int("flight", 0,
		"flight-recorder ring capacity in events (0 = off): traces the whole mesh — origin, relays, leaves — dumpable on /debug/flight and SIGQUIT")
	timeout := fs.Duration("timeout", 2*time.Minute, "overall run deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := netio.ParseWireMode(*modeName)
	if err != nil {
		return err
	}
	if *kill >= *relays {
		return fmt.Errorf("-kill %d would leave no relay for %d relays", *kill, *relays)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	media := harness.Media(*size, *seed)
	reg, stopObserve := harness.Observe()
	defer stopObserve()
	if *flight > 0 {
		defer harness.Flight(*flight, os.Stderr)()
	}

	// The kill trigger rides the leaves' record taps: once the wave has
	// received -kill-at records in total — mid-transfer — the victims die
	// abruptly and the remediator must walk their leaves to survivors.
	var m *mesh.Mesh
	var tapped atomic.Int64
	var killOnce sync.Once
	topo := mesh.Topology{
		Media:             media,
		Params:            rlnc.Params{BlockCount: *n, BlockSize: *k},
		Relays:            *relays,
		Leaves:            *leaves,
		OriginMode:        mode,
		XorRecode:         *xor,
		OriginMaxSessions: *originSessions,
		OriginPace:        *originPace,
		Seed:              *seed,
		Traced:            *flight > 0,
		Registry:          reg,
	}
	if *chaos {
		topo.UpstreamFaults = &faultnet.Config{
			Seed: *seed + 1, CorruptEvery: 9000, ResetEvery: 6000, MaxReadChunk: 2048,
		}
		topo.DownstreamFaults = &faultnet.Config{
			Seed: *seed + 2, CorruptEvery: 9000, ResetEvery: 5000, MaxReadChunk: 2048,
		}
		// Chaos plus kills on loaded CI machines: thresholds wide enough
		// that a starved heartbeat never buries a live relay.
		topo.Heartbeat = 10 * time.Millisecond
		topo.Sweep = 25 * time.Millisecond
		topo.Health = mesh.HealthConfig{SuspectAfter: 250 * time.Millisecond, DeadAfter: time.Second}
	}
	if *kill > 0 {
		victims := make([]string, *kill)
		for i := range victims {
			victims[i] = fmt.Sprintf("relay-%d", i)
		}
		topo.LeafFetchOpts = func(int) []netio.FetcherOption {
			return []netio.FetcherOption{netio.WithRecordTap(func(*rlnc.CodedBlock) {
				if tapped.Add(1) == *killAt {
					killOnce.Do(func() {
						for _, id := range victims {
							if err := m.KillRelay(id); err != nil {
								fmt.Fprintf(os.Stderr, "ncmesh: kill %s: %v\n", id, err)
							}
						}
					})
				}
			})}
		}
	}

	m, err = mesh.New(topo)
	if err != nil {
		return err
	}
	if err := m.Start(ctx); err != nil {
		return err
	}
	defer m.Close()
	fmt.Fprintf(stdout, "mesh up: origin %s (%s, cap %d), %d relays, %d leaves\n",
		m.OriginAddr(), mode, *originSessions, *relays, *leaves)

	if *metricsAddr != "" {
		bound, stopMetrics, err := harness.ServeMetrics(*metricsAddr, reg, func() map[string]any {
			return map[string]any{"mesh": m.Snapshot()}
		})
		if err != nil {
			return err
		}
		defer stopMetrics()
		fmt.Fprintf(stdout, "metrics on http://%s/metrics (JSON on /metrics.json, profiles on /debug/pprof/)\n", bound)
	}

	if *warm {
		if err := m.WaitWarm(ctx); err != nil {
			return err
		}
	}

	start := time.Now()
	if err := m.StartLeaves(ctx); err != nil {
		return err
	}
	if err := m.WaitLeaves(ctx); err != nil {
		return err
	}
	elapsed := time.Since(start)

	if err := harness.VerifyLeaves(media, m.Leaves()...); err != nil {
		return err
	}
	for _, leaf := range m.Leaves() {
		fmt.Fprintf(stdout, "leaf %d ok: %d records, %d reconnects, %d redirects, %v\n",
			leaf.ID, leaf.Records(), leaf.Reconnects(), leaf.Redirector().Redirects(), leaf.Duration())
	}

	snap := m.Snapshot()
	if *kill > 0 {
		// Leaves can finish before the failure detector's DeadAfter window
		// closes; give the health sweeps time to bury the victims.
		for {
			dead := 0
			for _, mem := range snap.Members {
				if mem.State == mesh.StateDead.String() {
					dead++
				}
			}
			if dead >= *kill {
				break
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("killed %d relays but the pool buried only %d: %w", *kill, dead, ctx.Err())
			case <-time.After(10 * time.Millisecond):
			}
			snap = m.Snapshot()
		}
		if snap.Remediations == 0 {
			return fmt.Errorf("relays died but the remediator moved no leaves")
		}
	}
	fmt.Fprintf(stdout, "wave complete in %v: %d leaves byte-identical, %d records tapped, %d blocks recoded, %d remediations\n",
		elapsed, *leaves, snap.Tapped, snap.Emitted, snap.Remediations)

	if *snapshotPath != "" {
		out, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if *snapshotPath == "-" {
			_, err = stdout.Write(out)
			return err
		}
		if err := os.WriteFile(*snapshotPath, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "snapshot written to %s\n", *snapshotPath)
	}
	return nil
}
