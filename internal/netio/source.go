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

// FrameRecord frames one coded block as a length-prefixed wire record in the
// given mode's encoding — ModeSystematic narrows a binary block to the compact
// XNC2 format, everything else travels as XNC1 — so code outside this package
// produces bit-identical records. Pumps lay theirs out in place instead
// (LayDenseRecord, SealRecord).
func FrameRecord(b *rlnc.CodedBlock, mode WireMode) ([]byte, error) {
	p := b.Params()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return frameBlock(b, p, mode, heapAlloc), nil
}

// frameBlock copies b, of shape p, into a record laid out in a frame from
// alloc and seals it in mode's encoding.
func frameBlock(b *rlnc.CodedBlock, p rlnc.Params, mode WireMode, alloc func(int) []byte) []byte {
	rec, row := LayDenseRecord(b.SegmentID, p, alloc)
	copy(row[copy(row, b.Coeffs):], b.Payload)
	return SealRecord(rec, p, mode)
}

// LayDenseRecord lays out one dense (XNC1) wire record of segment segID at p
// in a buffer from alloc — length prefix and block header written — and
// returns the record with its [C | x] row: BlockCount coefficient bytes, then
// BlockSize payload bytes, for the producer to fill in place. SealRecord
// finishes the record once the row is final.
func LayDenseRecord(segID uint32, p rlnc.Params, alloc func(int) []byte) (rec, row []byte) {
	rec, body := layFrame(rlnc.WireSize(p), alloc)
	return rec, rlnc.PutWireHeader(body, segID, p)
}

// SealRecord finishes a record of shape p laid out in a frame for a session in
// mode — in ModeSystematic a binary XNC1 row is narrowed to XNC2 and its length
// prefix shortened — and returns it sealed: rec, or a prefix of it.
func SealRecord(rec []byte, p rlnc.Params, mode WireMode) []byte {
	if mode == ModeSystematic {
		if x, ok := rlnc.NarrowWire(rec[recordLenLen:], p); ok {
			rec = rec[:recordLenLen+len(x)]
			binary.BigEndian.PutUint32(rec, uint32(len(x)))
		}
	}
	rlnc.SealWire(rec[recordLenLen:])
	return rec
}

// layFrame takes a frame for one size-byte record from alloc and writes its
// length prefix, the layout every producer shares; body is the record's part.
func layFrame(size int, alloc func(int) []byte) (rec, body []byte) {
	rec = alloc(recordLenLen + size)
	binary.BigEndian.PutUint32(rec, uint32(size))
	return rec, rec[recordLenLen:]
}

// heapAlloc is the record allocator of framing done outside a pump.
func heapAlloc(n int) []byte { return make([]byte, n) }

// sweepTable holds the systematic sweep of a media-backed ModeSystematic
// server, framed: entry seg·n + i is the XNC2 record of source block i of
// segment seg, length prefix included. The record is a constant, so it is
// framed once and every session writes the same bytes. Entries are built on
// first use: server bring-up is a gated metric, and a server nobody has
// fetched from yet should not have paid to frame its object.
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
	rec := frameBlock(&rlnc.CodedBlock{SegmentID: seg.ID(), Coeffs: coeffs, Payload: seg.Block(idx % n)}, t.obj.Params, ModeSystematic, heapAlloc)
	if !t.records[idx].CompareAndSwap(nil, &rec) {
		return *t.records[idx].Load()
	}
	return rec
}

// counterSource is the media-backed ModeDense RecordSource behind
// NewServerFromConfig: batches of XNC3 counter records encoded straight into
// wire frames by the parallel encoder. A record's coefficients are
// rlnc.CounterCoeffs(key, segment, index), so nothing random is drawn and
// nothing but the index travels. Indices count from zero per segment, so a
// record is unique server-wide until a segment has sent 2^32 of them.
type counterSource struct {
	obj  *rlnc.Object
	key  uint64
	next []uint32 // per segment: the index of the next record to frame

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
	first := c.next[seg]
	c.next[seg] += uint32(batch)
	recs, coeffs, payloads := c.recs[:0], c.coeffs[:0], c.payloads[:0]
	for i := range batch {
		index := first + uint32(i)
		rec, body := layFrame(rlnc.CounterWireSize(p), alloc)
		cs := c.coeffBuf[i*n : (i+1)*n]
		rlnc.CounterCoeffs(cs, c.key, id, index)
		recs = append(recs, rec)
		coeffs = append(coeffs, cs)
		payloads = append(payloads, rlnc.PutCounterHeader(body, id, index, p))
	}
	c.recs, c.coeffs, c.payloads = recs, coeffs, payloads
	if err := c.penc.EncodeBatchInto(payloads, segment, coeffs); err != nil {
		// Unreachable: the rows were cut to the segment's own shape.
		return nil
	}
	for _, rec := range recs {
		SealRecord(rec, p, ModeDense)
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
// sweepTable, not from here.
type systematicSource struct {
	obj *rlnc.Object

	// rng is the source's one coefficient stream, seeded once from the
	// server's seed and drawn from for as long as the source lives (the pump
	// is single-goroutine, so it needs no lock): two sources built alike emit
	// the same records for the same sequence of Records calls.
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
// XOR repair → dense tail, and each block is copied straight into its frame —
// binary blocks narrowed to the compact GF(2) encoding — before the next
// RepairBlock call reuses its storage.
func (o *systematicSource) Records(seg, batch int, alloc func(int) []byte) [][]byte {
	recs := o.recs[:0]
	se := o.sysEncs[seg]
	for range batch {
		recs = append(recs, frameBlock(se.RepairBlock(), o.obj.Params, ModeSystematic, alloc))
	}
	o.recs = recs
	return recs
}
