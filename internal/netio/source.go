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

// FrameRecord marshals one coded block as a length-prefixed wire record in
// the given mode's encoding: ModeSystematic frames binary blocks in the
// compact XNC2 format and dense blocks as XNC1; ModeDense frames everything
// as XNC1. This is the framing of every block a source holds as a CodedBlock
// — systematic repair, a GF(2) relay's recombinations — exported so code
// outside this package produces bit-identical records. (A media-backed dense
// origin lays XNC3 counter records out in place instead.)
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

// counterSource is the media-backed ModeDense RecordSource behind
// NewServerFromConfig: batches of XNC3 counter records encoded straight into
// wire frames by the shard's parallel encoder. A record's coefficients are
// rlnc.CounterCoeffs(key, segment, index), so nothing random is drawn and
// nothing but the index travels. Every shard of a server has its own
// counterSource over one shared key and one shared index counter per segment.
type counterSource struct {
	obj  *rlnc.Object
	key  uint64
	next []atomic.Uint32 // per segment, shared by every shard of the server

	// penc encodes a batch; coeffBuf holds its coefficient vectors, coeffs
	// views them, and payloads views the payloads of the frames under
	// construction.
	penc             *rlnc.ParallelEncoder
	coeffBuf         []byte
	coeffs, payloads [][]byte

	// recs is the slice Records returns, reused round after round: the pump is
	// the only caller and is done with a round's records before it asks again.
	recs [][]byte
}

func (c *counterSource) Info() SessionInfo { return objectInfo(c.obj, ModeDense) }

// Records implements RecordSource: claim batch indices of seg, lay the
// batch's frames out, write each vector F(key, seg, index) once into scratch,
// let one batch multiply write every payload where it will travel, seal.
func (c *counterSource) Records(seg, batch int, alloc func(int) []byte) [][]byte {
	p := c.obj.Params
	segment := c.obj.Segments[seg]
	n, id := p.BlockCount, segment.ID()
	if len(c.coeffBuf) < batch*n {
		c.coeffBuf = make([]byte, batch*n)
	}
	// One atomic add claims the whole batch: no other shard frames these
	// (segment, index) pairs until the counter wraps at 2^32.
	first := c.next[seg].Add(uint32(batch)) - uint32(batch)
	recs, coeffs, payloads := c.recs[:0], c.coeffs[:0], c.payloads[:0]
	for i := range batch {
		index := first + uint32(i)
		rec := alloc(recordLenLen + rlnc.CounterWireSize(p))
		binary.BigEndian.PutUint32(rec, uint32(len(rec)-recordLenLen))
		cs := c.coeffBuf[i*n : (i+1)*n]
		rlnc.CounterCoeffs(cs, c.key, id, index)
		recs = append(recs, rec)
		coeffs = append(coeffs, cs)
		payloads = append(payloads, rlnc.PutCounterHeader(rec[recordLenLen:], id, index, p))
	}
	c.recs, c.coeffs, c.payloads = recs, coeffs, payloads
	if err := c.penc.EncodeBatchInto(payloads, segment, coeffs); err != nil {
		// Unreachable: the rows were cut to the segment's own shape.
		return nil
	}
	for _, rec := range recs {
		SealDenseRecord(rec)
	}
	return recs
}

// objectInfo is the session a media-backed server of obj declares.
func objectInfo(obj *rlnc.Object, mode WireMode) SessionInfo {
	return SessionInfo{Params: obj.Params, Segments: len(obj.Segments), Length: int64(obj.Length), Mode: mode}
}

// systematicSource is the media-backed ModeSystematic RecordSource behind
// NewServerFromConfig: the XOR repair → dense tail part of the systematic
// schedule per segment — the sweep reaches each session from the server's
// sweepTable, not from here. A sharded server builds one per shard, each
// with its own seed lane.
type systematicSource struct {
	obj *rlnc.Object

	// rng is the source's one coefficient stream, seeded once from the shard's
	// seed lane and drawn from for as long as the source lives (each pump is
	// single-goroutine, so it needs no lock): two sources built alike emit the
	// same records for the same sequence of Records calls.
	rng *rand.Rand

	sysEncs []*rlnc.SystematicEncoder // one cycling schedule encoder per segment
	recs    [][]byte                  // as counterSource.recs
}

func newSystematicSource(obj *rlnc.Object, seed int64) *systematicSource {
	src := &systematicSource{obj: obj, rng: rand.New(rand.NewSource(seed))}
	src.sysEncs = make([]*rlnc.SystematicEncoder, len(obj.Segments))
	for i, seg := range obj.Segments {
		src.sysEncs[i] = rlnc.NewSystematicEncoder(seg, src.rng)
	}
	return src
}

func (o *systematicSource) Info() SessionInfo { return objectInfo(o.obj, ModeSystematic) }

// Records implements RecordSource with repair only: the sessions the pump
// feeds have had the sweep and asked for more. The per-segment encoder cycles
// XOR repair → dense tail; binary blocks go out in the compact GF(2)
// encoding. RepairBlock is a non-retaining emit — the record is marshaled
// before the next call reuses its storage.
func (o *systematicSource) Records(seg, batch int, alloc func(int) []byte) [][]byte {
	recs := o.recs[:0]
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
