package main

import (
	"fmt"
	"math/rand"
	"time"

	"extremenc/internal/gf256"
	"extremenc/internal/netio"
	"extremenc/internal/obs"
	"extremenc/internal/rlnc"
)

// ladder is the isolated-call rung of the per-layer budget: direct calls to
// public functions at the workload's (n, k), on one goroutine with nothing
// else running, at fixed operation counts.
type ladder struct {
	muladdGBps, xorGBps                              float64
	encodeNs, absorbNs, recodeNs, unmarshalNs, frame float64
}

const (
	ladderWork = 1 << 26 // bytes each kernel or codec rung pushes through per repetition
	ladderReps = 5       // repetitions per rung; the median is reported
	codecOps   = 1 << 14 // frame / unmarshal calls per repetition
)

// ladderSink keeps the ladder's results observable so no call is optimised
// away.
var ladderSink int

// rung runs fn, which performs ops operations, ladderReps times and returns
// the median nanoseconds per operation. The first repetition doubles as the
// warm-up the median then discounts.
func rung(ops int, fn func()) float64 {
	per := make([]float64, ladderReps)
	for i := range per {
		t0 := time.Now()
		fn()
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(ops)
	}
	return median(per)
}

// runLadder measures every rung for w; shrink divides the operation counts
// (the -quick run).
func runLadder(w workload, seed int64, shrink int) (l ladder, err error) {
	p := rlnc.Params{BlockCount: w.N, BlockSize: w.K}
	rng := rand.New(rand.NewSource(derive(seed, laneMedia)))
	segData := make([]byte, p.SegmentSize())
	rng.Read(segData)
	seg, err := rlnc.SegmentFromData(0, p, segData)
	if err != nil {
		return l, err
	}
	// keep records the first error a rung's closure hits.
	keep := func(e error) {
		if err == nil {
			err = e
		}
	}

	// gf256: the two row kernels every codec path bottoms out in.
	dst, src := make([]byte, w.K), seg.Block(0)
	ops := max(ladderWork/w.K/shrink, 1)
	l.muladdGBps = float64(w.K) / rung(ops, func() {
		for i := 0; i < ops; i++ {
			gf256.MulAddSlice(dst, src, byte(i)|2)
		}
	})
	l.xorGBps = float64(w.K) / rung(ops, func() {
		for i := 0; i < ops; i++ {
			gf256.XorSlice(dst, src)
		}
	})
	ladderSink += int(dst[0])

	// rlnc encode, the way the origin's pump calls it: dense batches through
	// the parallel encoder (one worker here), or the systematic cycle.
	recs := max(ladderWork/p.SegmentSize()/shrink, 1)
	var blocks []*rlnc.CodedBlock // one decode's worth of input for the rungs below
	if w.Mode == netio.ModeSystematic {
		se := rlnc.NewSystematicEncoder(seg, rng)
		cycle := w.N + se.XorRepair() + se.DenseTail()
		recs = (recs + cycle - 1) / cycle * cycle // whole cycles, so the phase mix is the schedule's
		l.encodeNs = rung(recs, func() {
			for i := 0; i < recs; i++ {
				ladderSink += len(se.Block().Payload)
			}
		})
		se.Reset()
		for i := 0; i < cycle; i++ {
			blk, _ := se.NextBlock()
			blocks = append(blocks, blk)
		}
	} else {
		penc, perr := rlnc.NewParallelEncoder(1, rlnc.FullBlock)
		if perr != nil {
			return l, perr
		}
		batch := max(4, w.N/4) // the server's default EncodeBatch
		rounds := max(recs/batch, 1)
		l.encodeNs = rung(rounds*batch, func() {
			for i := 0; i < rounds; i++ {
				out, e := penc.Encode(seg, batch, int64(i)+1)
				keep(e)
				ladderSink += len(out)
			}
		})
		if blocks, perr = penc.Encode(seg, w.N+8, seed); perr != nil {
			return l, perr
		}
	}

	// rlnc absorb: progressive Gauss-Jordan through Decoder.AddBlock, the call
	// the fetcher makes per record, until full rank.
	decodes := max(ladderWork/(w.N*p.SegmentSize())/shrink, 1)
	fed := 0
	decodeAll := func() {
		fed = 0
		for i := 0; i < decodes; i++ {
			dec, e := rlnc.NewDecoder(p)
			if e != nil {
				keep(e)
				return
			}
			for _, blk := range blocks {
				if dec.Ready() {
					break
				}
				_, e := dec.AddBlock(blk)
				keep(e)
				fed++
			}
			if !dec.Ready() {
				keep(fmt.Errorf("ladder: decoder stuck at rank %d/%d", dec.Rank(), w.N))
			}
		}
	}
	decodeAll() // fixes fed, the per-repetition operation count
	l.absorbNs = rung(fed, decodeAll)

	// rlnc recode: a full-rank Recoder emitting, the relay's per-record call.
	if w.Relay {
		rc, rerr := rlnc.NewRecoder(p, rlnc.WithSeed(seed))
		if rerr != nil {
			return l, rerr
		}
		for _, blk := range blocks {
			keep(rc.Add(blk))
		}
		l.recodeNs = rung(recs, func() {
			for i := 0; i < recs; i++ {
				blk, e := rc.Emit()
				if e != nil {
					keep(e)
					return
				}
				ladderSink += len(blk.Payload)
			}
		})
	}

	// Record codec: frame on the serving side, unmarshal on the fetch side.
	ops = max(codecOps/shrink, 1)
	var framed []byte
	l.frame = rung(ops, func() {
		for i := 0; i < ops; i++ {
			var e error
			framed, e = netio.FrameRecord(blocks[0], w.Mode)
			keep(e)
		}
	})
	if err != nil {
		return l, err
	}
	var blk rlnc.CodedBlock
	unmarshal := blk.UnmarshalBinary
	if w.Mode == netio.ModeSystematic {
		unmarshal = blk.UnmarshalRecord
	}
	l.unmarshalNs = rung(ops, func() {
		for i := 0; i < ops; i++ {
			keep(unmarshal(framed[4:]))
		}
	})
	return l, err
}

// traceDetail is what the traced pass of one workload wrote to
// trace-<workload>.json.
type traceDetail struct {
	Record     runRecord              `json:"record"`
	Workload   string                 `json:"workload"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Violations []string               `json:"violations,omitempty"`
	TracedS    float64                `json:"traced_window_s"`
	PerLayer   map[string]metricValue `json:"per_layer"`
	// LayerShare is each module's busy time as a share of the process
	// CPU-seconds of the traced window (busy time is wall time inside a span,
	// so a stage that parks can exceed its CPU share).
	LayerShare map[string]float64 `json:"layer_share_of_cpu"`
	// SelfMs sums, per span name, span duration minus the part its child
	// spans cover.
	SelfMs map[string]float64 `json:"self_ms_by_span"`
	Spans  []span             `json:"spans"`
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// computeTraced assembles every per-layer metric from a measurement whose
// last phase was traced and whose first was the untraced reference window.
func computeTraced(w workload, m *measurement, l ladder) traceDetail {
	ws, attempted, failed := windowsOf(m, w.mediaLen())
	ref, tw := ws[0], ws[len(ws)-1]
	from, to := m.bounds[len(m.bounds)-2], m.bounds[len(m.bounds)-1]
	bounds := boundTimes(m.bounds)
	last := len(ws) - 1

	stage := func(name string) obs.HistogramView { return to.stages[name].Sub(from.stages[name]) }
	busy := func(name string) float64 { return stage(name).Sum.Seconds() }
	count := func(name string) float64 { return float64(stage(name).Count) }

	var latencies []float64 // every window of the pass: the tail needs the samples
	for _, x := range ws {
		latencies = append(latencies, x.latencyMs...)
	}

	// Leaves' fetch ledgers, summed over the fetches that completed in the
	// traced window.
	var fs netio.FetchStats
	var absorbed float64 // records fed to a decoder still short of full rank
	for _, s := range m.samples {
		if s.err != nil || windowOf(s.end, bounds) != last {
			continue
		}
		fs.Records += s.stats.Records
		fs.Dependent += s.stats.Dependent
		fs.BytesDiscarded += s.stats.BytesDiscarded
		fs.Reconnects += s.stats.Reconnects
		fs.Corrupt += s.stats.Corrupt
		absorbed += float64(w.N*w.Segments + s.stats.Dependent)
	}

	// Relay iterations that ran wholly inside the traced window.
	var bringup, fill []float64
	var relaySent, relayShed, relayEncoded float64
	for _, r := range m.relays {
		if !r.traced || windowOf(r.end, bounds) != last {
			continue
		}
		bringup = append(bringup, float64(r.bringup.Nanoseconds())/1e6)
		fill = append(fill, float64(r.fill.Nanoseconds())/1e6)
		relaySent += float64(r.ledger.BlocksSent)
		relayShed += float64(r.ledger.BlocksShed)
		relayEncoded += float64(r.ledger.BlocksEncoded)
	}

	// Span medians per phase name, and self time per name.
	durs := make(map[string][]float64)
	for _, s := range m.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur().Nanoseconds())/1e6)
	}
	selfMs := make(map[string]float64)
	byID := selfTimes(m.spans)
	for _, s := range m.spans {
		selfMs[s.Name] += float64(byID[s.ID].Nanoseconds()) / 1e6
	}

	origin := struct{ encoded, offered, sent, shed, stall float64 }{
		float64(to.origin.BlocksEncoded - from.origin.BlocksEncoded),
		float64(to.origin.BlocksOffered - from.origin.BlocksOffered),
		float64(to.origin.BlocksSent - from.origin.BlocksSent),
		float64(to.origin.BlocksShed - from.origin.BlocksShed),
		(to.origin.EncodeStall - from.origin.EncodeStall).Seconds(),
	}
	// What the origin's direct consumers needed: n·segments records per leaf
	// fetch, or per relay fill when leaves sit behind relays.
	consumers := float64(tw.fetches)
	if w.Relay {
		consumers = float64(len(bringup))
	}
	needed := consumers * float64(w.N*w.Segments)

	readWait := time.Duration(to.wire.waitNs - from.wire.waitNs).Seconds()
	readCalls := float64(to.wire.calls - from.wire.calls)
	readBytes := float64(to.wire.bytes - from.wire.bytes)

	// The budget: ladder cost per record times the traced window's record
	// counts, against the CPU-seconds the process actually burned.
	upstream := count("mesh.relay_absorb") // records the relays' upstream fetchers parsed
	budgetS := (l.encodeNs*origin.encoded + l.frame*(origin.encoded+relayEncoded) +
		l.recodeNs*relayEncoded + l.absorbNs*absorbed +
		l.unmarshalNs*(float64(fs.Records)+upstream)) / 1e9

	v := map[string]float64{
		"gf256.muladd_gbps":         l.muladdGBps,
		"gf256.xor_gbps":            l.xorGBps,
		"rlnc.encode_ns_per_rec":    l.encodeNs,
		"rlnc.absorb_ns_per_rec":    l.absorbNs,
		"rlnc.recode_ns_per_rec":    l.recodeNs,
		"rlnc.unmarshal_ns_per_rec": l.unmarshalNs,
		"netio.frame_ns_per_rec":    l.frame,

		"rlnc.encode_batch.busy_s": busy("rlnc.encode_batch"),
		"rlnc.encode_batch.count":  count("rlnc.encode_batch"),
		"rlnc.absorb.busy_s":       busy("rlnc.absorb"),
		"rlnc.absorb.count":        count("rlnc.absorb"),
		"rlnc.xor_absorb.busy_s":   busy("rlnc.xor_absorb"),
		"rlnc.xor_absorb.count":    count("rlnc.xor_absorb"),
		"rlnc.xor_path_ratio":      ratio(count("rlnc.xor_absorb"), count("fetch.record_decode")),

		"netio.queue_offer.busy_s": busy("netio.queue_offer"),
		"netio.record_send.busy_s": busy("netio.record_send"),
		"netio.record_send.p99_us": float64(stage("netio.record_send").P99.Nanoseconds()) / 1e3,
		"netio.handshake.busy_s":   busy("netio.handshake"),
		"netio.encode_stall_s":     origin.stall,
		"netio.blocks_encoded":     origin.encoded,
		"netio.blocks_offered":     origin.offered,
		"netio.blocks_sent":        origin.sent,
		"netio.blocks_shed":        origin.shed,
		"netio.shed_ratio":         ratio(origin.shed, origin.offered),
		"netio.encode_overshoot":   ratio(origin.encoded, needed),

		"fetch_p90_ms":               percentile(latencies, 90),
		"fetch.records":              float64(fs.Records),
		"fetch.dependent":            float64(fs.Dependent),
		"fetch.dependent_ratio":      ratio(float64(fs.Dependent), float64(fs.Records)),
		"fetch.bytes_discarded":      float64(fs.BytesDiscarded),
		"fetch.reconnects":           float64(fs.Reconnects),
		"fetch.corrupt":              float64(fs.Corrupt),
		"fetch.record_decode.busy_s": busy("fetch.record_decode"),
		"fetch.dial.busy_s":          busy("fetch.dial"),

		"mesh.relay_absorb.busy_s": busy("mesh.relay_absorb"),
		"mesh.recode.busy_s":       busy("mesh.recode"),
		"mesh.recode.count":        count("mesh.recode"),
		"mesh.relay.bringup_ms":    median(bringup),
		"mesh.relay.fill_ms":       median(fill),
		"mesh.relay.blocks_sent":   relaySent,
		"mesh.relay.blocks_shed":   relayShed,

		"wire.read_wait_s":     readWait,
		"wire.read_calls":      readCalls,
		"wire.bytes_per_read":  ratio(readBytes, readCalls),
		"leaf.dial_ms":         median(durs["dial"]),
		"leaf.handshake_ms":    median(durs["handshake"]),
		"leaf.first_record_ms": median(durs["first_record"]),
		"leaf.stream_ms":       median(durs["stream"]),
		"leaf.finish_ms":       median(durs["finish"]),

		"proc.cpu_util":                     tw.cpuUtil(),
		"proc.gc_cpu_s":                     to.gcCPU - from.gcCPU,
		"proc.alloc_bytes_per_payload_byte": ratio(float64(to.mem.TotalAlloc-from.mem.TotalAlloc), tw.payload),
		"proc.allocs_per_record":            ratio(float64(to.mem.Mallocs-from.mem.Mallocs), float64(fs.Records)),
		"proc.peak_rss_mb":                  peakRSSMB(),
		"proc.goroutines_peak":              float64(m.gorPeak),

		"trace.overhead_pct": 100 * ratio(ref.goodputMBps()-tw.goodputMBps(), ref.goodputMBps()),
		"budget.coverage":    ratio(budgetS, tw.cpuS),
	}

	d := traceDetail{Workload: w.Name, Attempted: attempted, Failed: failed + len(m.violations), Violations: m.violations,
		TracedS: tw.wallS, PerLayer: make(map[string]metricValue, len(perLayer)), SelfMs: selfMs, Spans: m.spans}
	for _, def := range perLayer {
		d.PerLayer[def.Name] = metricValue{v[def.Name], def.Unit}
	}
	d.LayerShare = map[string]float64{
		"rlnc":  ratio(v["rlnc.encode_batch.busy_s"]+v["rlnc.absorb.busy_s"]+v["rlnc.xor_absorb.busy_s"], tw.cpuS),
		"netio": ratio(v["netio.queue_offer.busy_s"]+v["netio.record_send.busy_s"]+v["netio.handshake.busy_s"], tw.cpuS),
		"fetch": ratio(v["fetch.record_decode.busy_s"]+v["fetch.dial.busy_s"], tw.cpuS),
		"mesh":  ratio(v["mesh.relay_absorb.busy_s"]+v["mesh.recode.busy_s"], tw.cpuS),
	}
	return d
}
