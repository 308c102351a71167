package netio

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"

	"extremenc/internal/rlnc"
)

// SessionInfo describes the object a server declares in its session
// handshake: the coding parameters, segment count, reassembled byte length,
// and wire mode. It is the exported face of the wire header — a relay that
// fetches upstream learns the SessionInfo from its fetcher's session hook
// and re-declares the same object (possibly in a different mode) downstream.
type SessionInfo struct {
	Params   rlnc.Params
	Segments int
	Length   int64
	Mode     WireMode
}

// header converts to the wire-protocol form.
func (si SessionInfo) header() sessionHeader {
	return sessionHeader{params: si.Params, segments: si.Segments, length: si.Length, mode: si.Mode}
}

// info converts a parsed wire header to the exported form.
func (h sessionHeader) info() SessionInfo {
	return SessionInfo{Params: h.params, Segments: h.segments, Length: h.length, Mode: h.mode}
}

// Validate rejects a SessionInfo no handshake would accept.
func (si SessionInfo) Validate() error { return si.header().validate() }

// RecordSource produces the framed records a Server's pump fans out. It
// abstracts where coded blocks come from: a media-backed server encodes
// fresh blocks from source segments (NewServerFromConfig), while a mesh relay
// emits recombinations of blocks it received upstream without ever decoding
// (NewSourceServerFromConfig). The pump is a single goroutine, so Records is never
// called concurrently by one server; a source shared across servers must
// synchronize internally.
type RecordSource interface {
	// Info returns the session handshake the server declares. It must be
	// constant for the server's lifetime: fetchers treat a changed header
	// across reconnects as fatal.
	Info() SessionInfo

	// Records returns up to batch framed records (length prefix included) for
	// segment index seg. Returning fewer, or none, is allowed: a relay that has
	// not yet accumulated rank for seg simply has nothing to say, and the pump
	// backs off briefly instead of treating it as an error.
	//
	// Every record is built in a buffer obtained from alloc during this call —
	// alloc(n) returns n bytes of unspecified content from the server's frame
	// pool — and the records come back in the order their buffers were
	// obtained. A returned buffer is the server's from that moment: it is
	// written to every session that takes it and goes back to the pool when the
	// last of them has sent or shed it, so the source must not touch it again.
	// A buffer obtained and not returned goes straight back. The slice itself
	// stays the source's and need only remain valid until the next call.
	Records(seg, batch int, alloc func(int) []byte) [][]byte
}

// DegradableSource is a RecordSource with a cheaper degraded schedule the
// brownout controller can toggle. Lean semantics are the source's own; the
// contract is only that lean output stays protocol-valid and that SetLean is
// safe to call concurrently with Records (the server calls it from the
// brownout goroutine while the pumps run). The media-backed systematic
// source drops its dense tail and halves its XOR repair per cycle when lean;
// dense sources have no cheaper schedule and treat SetLean as a no-op.
type DegradableSource interface {
	RecordSource

	// SetLean switches between the full (false) and degraded (true)
	// schedule. Redundant calls are cheap and idempotent.
	SetLean(bool)
}

// FrameRecord marshals one coded block as a length-prefixed wire record in
// the given mode's encoding: ModeSystematic frames binary blocks in the
// compact XNC2 format and dense blocks as XNC1; ModeDense frames everything
// as XNC1. This is the framing the Server pumps use internally, exported so
// code outside this package produces bit-identical records.
func FrameRecord(b *rlnc.CodedBlock, mode WireMode) ([]byte, error) {
	return FrameRecordInto(b, mode, heapAlloc)
}

// FrameRecordInto is FrameRecord into a buffer from alloc: how a RecordSource
// frames a block it holds as a CodedBlock into the server's frame pool.
func FrameRecordInto(b *rlnc.CodedBlock, mode WireMode, alloc func(int) []byte) ([]byte, error) {
	marshal := b.MarshalBinary
	if mode == ModeSystematic && b.IsBinary() {
		marshal = b.MarshalBinaryXor
	}
	body, err := marshal()
	if err != nil {
		return nil, err
	}
	rec := alloc(recordLenLen + len(body))
	binary.BigEndian.PutUint32(rec, uint32(len(body)))
	copy(rec[recordLenLen:], body)
	return rec, nil
}

// heapAlloc is the record allocator of framing done outside a pump.
func heapAlloc(n int) []byte { return make([]byte, n) }

// sweepTable holds the systematic sweep of a media-backed ModeSystematic
// server, framed: entry seg·n + i is the XNC2 record of source block i of
// segment seg, length prefix included. The record is a constant, so it is
// framed once — two k-byte copies, an allocation and a CRC that the pump used
// to repeat every cycle — and every session of every shard writes the same
// bytes. Entries are built on first use: server bring-up is a gated metric, and
// a server nobody has fetched from yet should not have paid to frame its object.
type sweepTable struct {
	obj     *rlnc.Object
	records []atomic.Pointer[[]byte]
}

func newSweepTable(obj *rlnc.Object) *sweepTable {
	return &sweepTable{obj: obj, records: make([]atomic.Pointer[[]byte], len(obj.Segments)*obj.Params.BlockCount)}
}

// record returns entry idx, framing it if no session has yet. Two sessions
// racing for one entry frame identical bytes; the first to publish wins.
func (t *sweepTable) record(idx int) []byte {
	if rec := t.records[idx].Load(); rec != nil {
		return *rec
	}
	n := t.obj.Params.BlockCount
	seg := t.obj.Segments[idx/n]
	coeffs := make([]byte, n)
	coeffs[idx%n] = 1
	rec, err := FrameRecord(&rlnc.CodedBlock{SegmentID: seg.ID(), Coeffs: coeffs, Payload: seg.Block(idx % n)}, ModeSystematic)
	if err != nil {
		// A unit vector over a validated segment marshals.
		panic("netio: framing a source block: " + err.Error())
	}
	if !t.records[idx].CompareAndSwap(nil, &rec) {
		return *t.records[idx].Load()
	}
	return rec
}

// objectSource is the media-backed RecordSource behind NewServerFromConfig:
// dense batches encoded straight into wire frames by the shared parallel
// encoder, or, in ModeSystematic, the XOR repair → dense tail part of the
// systematic schedule per segment — the sweep reaches each session from the
// server's sweepTable, not from here. A sharded server builds one objectSource
// per shard, each with its own seed lane.
type objectSource struct {
	obj  *rlnc.Object
	mode WireMode

	// rng is the source's one coefficient stream, seeded once from the shard's
	// seed lane and drawn from for as long as the source lives (each pump is
	// single-goroutine, so it needs no lock): two sources built alike emit the
	// same records for the same sequence of Records calls.
	rng *rand.Rand

	// Dense path: the parallel encoder, and the batch's coefficient and
	// payload rows — views into the frames under construction.
	penc             *rlnc.ParallelEncoder
	coeffs, payloads [][]byte

	// Systematic path: one cycling schedule encoder per segment, plus the
	// brownout lever: lean is flipped by the controller goroutine, observed
	// by the pump, and applied to the encoders lazily (they are not safe to
	// retune from another goroutine). defXor/defTail remember the configured
	// schedule so leaving lean restores it exactly.
	sysEncs     []*rlnc.SystematicEncoder
	lean        atomic.Bool
	leanApplied bool // pump-goroutine local
	defXor      int
	defTail     int

	// recs is the slice Records returns, reused round after round: the pump is
	// the only caller and is done with a round's records before it asks again.
	recs [][]byte
}

func newObjectSource(obj *rlnc.Object, mode WireMode, penc *rlnc.ParallelEncoder, seed int64) *objectSource {
	src := &objectSource{obj: obj, mode: mode, penc: penc, rng: rand.New(rand.NewSource(seed))}
	if mode == ModeSystematic {
		src.sysEncs = make([]*rlnc.SystematicEncoder, len(obj.Segments))
		for i, seg := range obj.Segments {
			src.sysEncs[i] = rlnc.NewSystematicEncoder(seg, src.rng)
		}
		src.defXor = src.sysEncs[0].XorRepair()
		src.defTail = src.sysEncs[0].DenseTail()
	}
	return src
}

// SetLean flips the systematic schedule between the configured full cycle and
// a degraded one — half the XOR repair rate (floor 2), no dense tail — that
// trades repair margin for encode CPU under brownout. Safe to call from the
// controller goroutine while the pump runs; a dense-mode source has no
// cheaper schedule and ignores the flip.
func (o *objectSource) SetLean(lean bool) { o.lean.Store(lean) }

// applyLean retunes the segment encoders when the lean flag changed since the
// last pump round. Runs only on the pump goroutine, which is the sole caller
// of the encoders.
func (o *objectSource) applyLean() {
	lean := o.lean.Load()
	if lean == o.leanApplied {
		return
	}
	o.leanApplied = lean
	xor, tail := o.defXor, o.defTail
	if lean {
		xor, tail = max(o.defXor/2, 2), 0
	}
	for _, se := range o.sysEncs {
		se.SetSchedule(xor, tail)
	}
}

func (o *objectSource) Info() SessionInfo {
	return SessionInfo{
		Params:   o.obj.Params,
		Segments: len(o.obj.Segments),
		Length:   int64(o.obj.Length),
		Mode:     o.mode,
	}
}

// Records implements RecordSource.
func (o *objectSource) Records(seg, batch int, alloc func(int) []byte) [][]byte {
	recs := o.recs[:0]
	if o.mode == ModeSystematic {
		// Repair only: the sessions the pump feeds have had the sweep and
		// asked for more. The per-segment encoder cycles XOR repair → dense
		// tail; binary blocks go out in the compact GF(2) encoding.
		// RepairBlock is a non-retaining emit — the record is marshaled
		// before the next call reuses its storage.
		o.applyLean()
		se := o.sysEncs[seg]
		for i := 0; i < batch; i++ {
			rec, err := FrameRecordInto(se.RepairBlock(), ModeSystematic, alloc)
			if err != nil {
				continue
			}
			recs = append(recs, rec)
		}
		o.recs = recs
		return recs
	}
	// The XNC1 record is a [C | x] row between a header and a CRC: lay the
	// batch's frames out, draw each C where it will travel, let one batch
	// multiply write every x where it will travel, seal.
	p := o.obj.Params
	segment := o.obj.Segments[seg]
	coeffs, payloads := o.coeffs[:0], o.payloads[:0]
	for i := 0; i < batch; i++ {
		rec, row := LayDenseRecord(segment.ID(), p, alloc)
		rlnc.DrawCoeffs(row[:p.BlockCount], o.rng)
		recs = append(recs, rec)
		coeffs = append(coeffs, row[:p.BlockCount])
		payloads = append(payloads, row[p.BlockCount:])
	}
	o.recs, o.coeffs, o.payloads = recs, coeffs, payloads
	if err := o.penc.EncodeBatchInto(payloads, segment, coeffs); err != nil {
		// Unreachable: the rows were cut to the segment's own shape.
		return nil
	}
	for _, rec := range recs {
		SealDenseRecord(rec)
	}
	return recs
}
