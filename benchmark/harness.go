package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"extremenc/internal/mesh"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

const (
	leafClients   = 2                // closed loop: each leaf starts its next fetch when the last one verified
	fetchDeadline = 10 * time.Second // a fetch slower than this is a failed operation
	rankSampleGap = 16               // traced run: check Fetcher.Ranks() every this many records
)

// Seed lanes: one -seed derives every random input, and the program under
// test only ever sees the derived values.
const (
	laneMedia = iota + 1
	laneServer
	laneRelay
	laneFetch
)

// derive maps (seed, lane) to an independent 63-bit seed (splitmix64 step).
func derive(seed int64, lane int) int64 {
	z := uint64(seed) + uint64(lane)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) &^ (1 << 63))
}

func makeMedia(w workload, seed int64) []byte {
	media := make([]byte, w.mediaLen())
	rand.New(rand.NewSource(derive(seed, laneMedia))).Read(media)
	return media
}

// phase is one measurement window of a run.
type phase struct {
	Dur    time.Duration
	Traced bool // spans, stage histograms and the connection wrapper are on
}

// fetchSample is one finished fetch.
type fetchSample struct {
	end     time.Time
	latency time.Duration
	stats   netio.FetchStats
	err     error
}

// relaySample is one finished relay iteration of a Relay workload.
type relaySample struct {
	end     time.Time
	traced  bool
	bringup time.Duration // the StartRelay call
	fill    time.Duration // StartRelay call to the relay holding full rank
	ledger  netio.CounterView
}

// counters is everything sampled at a window boundary; window figures are
// differences of two of these.
type counters struct {
	at     time.Time
	cpu    time.Duration // getrusage user+sys of the whole process
	steal  time.Duration // CPU time the hypervisor gave to other guests, all CPUs
	gcCPU  float64       // seconds, runtime/metrics
	mem    runtime.MemStats
	origin netio.CounterView
	stages map[string]obs.HistogramView // nil while no sink is installed
	wire   wireCount                    // what the leaves' connection wrappers have seen so far
}

// harness is one workload's process: origin, (relay,) leaves, all in this
// process and talking over host loopback TCP — no link is measured.
type harness struct {
	seed  int64
	media []byte

	origin     *netio.Server
	originAddr string
	originDone chan struct{}

	rec  atomic.Pointer[recorder] // non-nil while a traced phase is open
	wire wireStats

	fetchSeq atomic.Uint64
	stopping atomic.Bool
	gorPeak  atomic.Int64

	mu         sync.Mutex
	samples    []fetchSample
	relays     []relaySample
	violations []string // correctness-gate failures other than a failed fetch
}

func (h *harness) violate(format string, args ...any) {
	h.mu.Lock()
	h.violations = append(h.violations, fmt.Sprintf(format, args...))
	h.mu.Unlock()
}

func (w workload) serverConfig(seed int64) netio.ServerConfig {
	cfg := netio.DefaultServerConfig()
	cfg.Mode = w.Mode
	cfg.Seed = derive(seed, laneServer)
	return cfg
}

// startOrigin brings a media-backed server up on a loopback port.
func startOrigin(w workload, media []byte, seed int64) (srv *netio.Server, addr string, done chan struct{}, err error) {
	srv, err = netio.NewServerFromConfig(media, rlnc.Params{BlockCount: w.N, BlockSize: w.K}, w.serverConfig(seed))
	if err != nil {
		return nil, "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	done = make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(context.Background(), ln) //nolint:errcheck // ends at Shutdown
	}()
	return srv, ln.Addr().String(), done, nil
}

// stopServer shuts srv down and applies the ledger gate: once every session
// has ended, offered == sent + shed must hold exactly.
func stopServer(srv *netio.Server, done chan struct{}) error {
	srv.Shutdown()
	<-done
	if v := srv.Snapshot().CounterView; !v.Consistent() {
		return fmt.Errorf("server ledger: offered %d != sent %d + shed %d", v.BlocksOffered, v.BlocksSent, v.BlocksShed)
	}
	return nil
}

// measureSetup times cold bring-ups: NewServerFromConfig(media) + Listen + a
// RawClient reading its first record — what an operator waits between "start"
// and "serving". It makes at least reps of them and goes on until budget is
// spent or setupMaxReps are made.
func measureSetup(w workload, media []byte, seed int64, reps int, budget time.Duration) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i, began := 0, time.Now(); i < reps || (i < setupMaxReps && time.Since(began) < budget); i++ {
		t0 := time.Now()
		srv, addr, done, err := startOrigin(w, media, seed)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			stopServer(srv, done) //nolint:errcheck // the dial error is the one to report
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		rc, err := netio.NewRawClient(conn)
		if err == nil {
			_, err = rc.Next()
		}
		dt := time.Since(t0)
		if rc != nil {
			rc.Close()
		}
		if serr := stopServer(srv, done); err == nil {
			err = serr
		}
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		out = append(out, dt.Seconds())
	}
	return out, nil
}

func dialer(addr string) netio.DialFunc {
	return func(ctx context.Context) (net.Conn, error) {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
}

// fetchTrace holds the seam timestamps of one traced fetch. Every field is
// touched only from the goroutine running Fetch (the fetcher calls dial,
// SessionHook and RecordTap synchronously).
type fetchTrace struct {
	f *netio.Fetcher

	dialStart, dialEnd, session, firstRec, lastRec time.Time
	records                                        int
	ranks                                          map[uint32]int
	regressed                                      bool
}

func (ft *fetchTrace) onRecord(*rlnc.CodedBlock) {
	now := time.Now()
	if ft.firstRec.IsZero() {
		ft.firstRec = now
	}
	ft.lastRec = now
	ft.records++
	if ft.records%rankSampleGap != 0 {
		return
	}
	// Rank never regresses: the RLNC contract, sampled because Ranks allocates.
	ranks := ft.f.Ranks()
	for seg, prev := range ft.ranks {
		if ranks[seg] < prev {
			ft.regressed = true
		}
	}
	ft.ranks = ranks
}

// fetch runs one leaf fetch against addr, verifies the payload byte for byte
// and records the sample. parent is the enclosing relay-iteration span (0 for
// a direct fetch).
func (h *harness) fetch(ctx context.Context, addr string, parent uint64) {
	id := h.fetchSeq.Add(1)
	cfg := netio.DefaultFetcherConfig()
	cfg.Seed = derive(h.seed, laneFetch) + int64(id)
	dial := dialer(addr)

	rec := h.rec.Load()
	var ft *fetchTrace
	if rec != nil {
		ft = &fetchTrace{}
		plain := dial
		dial = func(ctx context.Context) (net.Conn, error) {
			first := ft.dialStart.IsZero()
			if first {
				ft.dialStart = time.Now()
			}
			conn, err := plain(ctx)
			if first {
				ft.dialEnd = time.Now()
			}
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: conn, stats: &h.wire}, nil
		}
		cfg.SessionHook = func(netio.SessionInfo) {
			if ft.session.IsZero() {
				ft.session = time.Now()
			}
		}
		cfg.RecordTap = ft.onRecord
	}

	f, err := netio.NewFetcherFromConfig(dial, cfg)
	if err != nil {
		h.violate("fetcher config: %v", err)
		return
	}
	if ft != nil {
		ft.f = f
	}
	ctx, cancel := context.WithTimeout(ctx, fetchDeadline)
	defer cancel()
	t0 := time.Now()
	res, err := f.Fetch(ctx)
	fetched := time.Now()
	if err == nil && !bytes.Equal(res.Payload, h.media) {
		err = fmt.Errorf("payload differs from media (%d bytes, want %d)", len(res.Payload), len(h.media))
	}
	end := time.Now()
	if err != nil && h.stopping.Load() {
		return // cancelled by the end of the run, not a failure
	}
	if ft != nil && ft.regressed {
		err = fmt.Errorf("decoder rank regressed during fetch %d", id)
	}
	s := fetchSample{end: end, latency: end.Sub(t0), stats: *res.Stats, err: err}
	h.mu.Lock()
	h.samples = append(h.samples, s)
	h.mu.Unlock()

	if ft == nil || err != nil {
		return
	}
	root := rec.newID()
	rec.add(root, parent, id, "fetch", t0, end)
	for _, c := range []struct {
		name     string
		from, to time.Time
	}{
		{"dial", ft.dialStart, ft.dialEnd},
		{"handshake", ft.dialEnd, ft.session},
		{"first_record", ft.session, ft.firstRec},
		{"stream", ft.firstRec, ft.lastRec},
		{"finish", ft.lastRec, fetched},
		{"verify", fetched, end},
	} {
		rec.add(rec.newID(), root, id, c.name, c.from, c.to)
	}
}

// leafLoop is one closed-loop leaf fetching straight from the origin.
func (h *harness) leafLoop(ctx context.Context) {
	for !h.stopping.Load() {
		h.fetch(ctx, h.originAddr, 0)
	}
}

// relayLoop is the closed loop of a Relay workload: every iteration starts a
// cold recoding relay against the persistent origin, waits until the relay
// holds full rank, lets both leaves fetch the object through it concurrently,
// then closes the relay. Leaves that race a still-filling relay are fed
// mostly dependent records, and how many is decided by the scheduler: one
// fetch needed anything from 365 to 1526 records for its 256, which no bound
// can gate (README, "Noise"). Filling first makes an iteration a fixed amount
// of work through the same four stages.
func (h *harness) relayLoop(ctx context.Context, w workload) {
	fullRank := w.N * w.Segments
	for iter := int64(0); !h.stopping.Load(); iter++ {
		rec := h.rec.Load()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			h.violate("relay listen: %v", err)
			return
		}
		// The tap runs after the relay's own, so the rank it reads includes the
		// record in hand; started covers a relay that filled before StartRelay
		// returned.
		var started atomic.Pointer[mesh.Relay]
		filled := make(chan struct{}, 1)
		checkFull := func(r *mesh.Relay) {
			if r != nil && r.TotalRank() >= fullRank {
				select {
				case filled <- struct{}{}:
				default:
				}
			}
		}
		cfg := mesh.RelayConfig{
			ID:        fmt.Sprintf("relay-%d", iter),
			Upstream:  dialer(h.originAddr),
			Listener:  ln,
			Seed:      derive(h.seed, laneRelay) + iter,
			FetchOpts: []netio.FetcherOption{netio.WithRecordTap(func(*rlnc.CodedBlock) { checkFull(started.Load()) })},
		}
		t0 := time.Now()
		relay, err := mesh.StartRelay(ctx, cfg)
		up := time.Now()
		if err != nil {
			ln.Close()
			if !h.stopping.Load() {
				h.violate("start relay: %v", err)
			}
			return
		}
		started.Store(relay)
		checkFull(relay)
		select {
		case <-filled:
		case <-ctx.Done():
		}
		full := time.Now()
		var iterSpan uint64
		if rec != nil {
			iterSpan = rec.newID()
		}
		var wg sync.WaitGroup
		for i := 0; i < leafClients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				h.fetch(ctx, relay.Addr(), iterSpan)
			}()
		}
		wg.Wait()
		relay.Close()
		end := time.Now()
		if h.stopping.Load() {
			return
		}
		ledger := relay.Ledger()
		if !ledger.Consistent() {
			h.violate("%s ledger: offered %d != sent %d + shed %d", cfg.ID, ledger.BlocksOffered, ledger.BlocksSent, ledger.BlocksShed)
		}
		// A small object can fill the relay before StartRelay returns, so the
		// fill is timed from the call, not from its return.
		rs := relaySample{end: end, traced: rec != nil, bringup: up.Sub(t0), fill: full.Sub(t0), ledger: ledger}
		if rec != nil {
			rec.add(iterSpan, 0, uint64(iter), "relay_iteration", t0, end)
			rec.add(rec.newID(), iterSpan, uint64(iter), "relay_start", t0, up)
			rec.add(rec.newID(), iterSpan, uint64(iter), "relay_fill", t0, full)
		}
		h.mu.Lock()
		h.relays = append(h.relays, rs)
		h.mu.Unlock()
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostSteal reads the steal column of /proc/stat: time, summed over CPUs, in
// which this guest had work to run and the hypervisor ran something else. It
// is the direct measure of "the box was not ours"; 0 where the file or the
// column is missing.
func hostSteal() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(ticks) * (time.Second / 100) // USER_HZ is 100 on Linux
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stageNames are the stage histograms the program already exports and the
// traced run reads (without editing them).
var stageNames = []string{
	"rlnc.encode_batch", "rlnc.absorb", "rlnc.xor_absorb",
	"netio.queue_offer", "netio.record_send", "netio.handshake",
	"fetch.record_decode", "fetch.dial",
	"mesh.relay_absorb", "mesh.recode",
}

func (h *harness) sample() counters {
	c := counters{at: time.Now(), cpu: processCPU(), steal: hostSteal(), origin: h.origin.Snapshot().CounterView}
	gc := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(gc)
	if gc[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = gc[0].Value.Float64()
	}
	runtime.ReadMemStats(&c.mem)
	if reg := obs.Sink(); reg != nil {
		c.stages = make(map[string]obs.HistogramView, len(stageNames))
		for _, name := range stageNames {
			c.stages[name], _ = reg.HistogramView(name)
		}
	}
	c.wire = h.wire.snapshot()
	return c
}

func boundTimes(cs []counters) []time.Time {
	ts := make([]time.Time, len(cs))
	for i, c := range cs {
		ts[i] = c.at
	}
	return ts
}

// measurement is the raw outcome of driving one workload through its phases.
type measurement struct {
	bounds     []counters // len(phases)+1 boundary samples
	samples    []fetchSample
	relays     []relaySample
	spans      []span
	violations []string
	gorPeak    int64
}

// drive runs the workload's closed loop: warm-up (discarded), then one window
// per phase, sampling the process counters at every boundary.
func drive(w workload, media []byte, seed int64, warmup time.Duration, phases []phase) (*measurement, error) {
	h := &harness{seed: seed, media: media}
	var err error
	h.origin, h.originAddr, h.originDone, err = startOrigin(w, media, seed)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var loops sync.WaitGroup
	if w.Relay {
		loops.Add(1)
		go func() { defer loops.Done(); h.relayLoop(ctx, w) }()
	} else {
		for i := 0; i < leafClients; i++ {
			loops.Add(1)
			go func() { defer loops.Done(); h.leafLoop(ctx) }()
		}
	}

	time.Sleep(warmup)
	m := &measurement{bounds: []counters{h.sample()}}
	stopPeak := func() {}
	for _, p := range phases {
		if p.Traced && h.rec.Load() == nil {
			obs.SetSink(obs.NewRegistry())
			h.rec.Store(newRecorder())
			stopPeak = h.watchGoroutines()
			// Re-sample so the traced window's deltas start with the sink in place.
			m.bounds[len(m.bounds)-1] = h.sample()
		}
		time.Sleep(time.Until(m.bounds[len(m.bounds)-1].at.Add(p.Dur)))
		m.bounds = append(m.bounds, h.sample())
	}
	stopPeak()

	h.stopping.Store(true)
	cancel()
	loops.Wait()
	obs.SetSink(nil)
	if err := stopServer(h.origin, h.originDone); err != nil {
		h.violate("origin: %v", err)
	}
	m.samples, m.relays, m.violations = h.samples, h.relays, h.violations
	m.gorPeak = h.gorPeak.Load()
	if rec := h.rec.Load(); rec != nil {
		m.spans = rec.snapshot()
	}
	return m, nil
}

// watchGoroutines samples the goroutine count through the traced window and
// returns the function that stops the sampler and waits for it.
func (h *harness) watchGoroutines() (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			if n := int64(runtime.NumGoroutine()); n > h.gorPeak.Load() {
				h.gorPeak.Store(n)
			}
			select {
			case <-t.C:
			case <-quit:
				return
			}
		}
	}()
	return func() { close(quit); <-done }
}
