package netio

import (
	"encoding/binary"
	"math/rand"
	"sync/atomic"

	"extremenc/internal/rlnc"
)

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

	// Records lays framed records (length prefix included) of segment seg in
	// the frames it is handed — record i at the start of frames[i], which it
	// re-slices to that record — and returns how many it filled: frames[:k],
	// k ≤ len(frames). Filling fewer, or none, is allowed: a relay that has
	// not yet accumulated rank for seg simply has nothing to say, and the pump
	// backs off briefly instead of treating it as an error.
	//
	// Every frame is as long as the longest record a server of Info's params
	// frames (an XNC1 record, or an XNC3 counter record when n < 4), and its
	// content is unspecified. The
	// frames are the server's: a filled one is written to every session that
	// takes it and goes back to the pool when the last of them has sent or
	// shed it, so the source must not touch it after the call, and the rest go
	// back at once.
	Records(seg int, frames [][]byte) int

	// Sweep returns record i < n of a basis of segment seg, length prefix
	// included — a buffer of its own or one the source holds for its lifetime,
	// never written again — when the source holds seg whole, and nil when it
	// does not; once whole, seg keeps that basis for the source's lifetime.
	// Every media-backed source holds every segment whole: a dense origin's
	// basis is its counter records 0…n−1, a systematic one's the source blocks.
	// The server asks once per record (sweepTable). Session goroutines call
	// Sweep concurrently, with each other and with Records: it shares no scratch.
	Sweep(seg, i int) []byte
}

// FrameRecord frames one coded block as a length-prefixed wire record in the
// given mode's encoding — ModeSystematic narrows a binary block to the compact
// XNC2 format, everything else travels as XNC1 — in a frame of its own, so
// code outside this package produces bit-identical records. Pumps lay theirs
// out in the frames they are handed instead (LayDenseRecord, SealRecord).
func FrameRecord(b *rlnc.CodedBlock, mode WireMode) ([]byte, error) {
	p := b.Params()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return frameBlock(make([]byte, recordLenLen+rlnc.WireSize(p)), b, p, mode), nil
}

// frameBlock copies b, of shape p, into a record laid out at the start of
// frame and seals it in mode's encoding.
func frameBlock(frame []byte, b *rlnc.CodedBlock, p rlnc.Params, mode WireMode) []byte {
	rec, row := LayDenseRecord(frame, b.SegmentID, p)
	copy(row[copy(row, b.Coeffs):], b.Payload)
	return SealRecord(rec, p, mode)
}

// LayDenseRecord lays out one dense (XNC1) wire record of segment segID at p
// at the start of frame — length prefix and block header written — and
// returns the record with its [C | x] row: BlockCount coefficient bytes, then
// BlockSize payload bytes, for the producer to fill in place. SealRecord
// finishes the record once the row is final.
func LayDenseRecord(frame []byte, segID uint32, p rlnc.Params) (rec, row []byte) {
	rec, body := layFrame(frame, rlnc.WireSize(p))
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

// frameSize is the length of every frame a server of p hands its source: the
// longest record any source lays, length prefix included. That is an XNC1
// record (n coefficient bytes) or, when n < 4, an XNC3 counter record (a
// 4-byte index); an XNC2 record is never longer than XNC1.
func frameSize(p rlnc.Params) int {
	return recordLenLen + max(rlnc.WireSize(p), rlnc.CounterWireSize(p))
}

// layFrame writes the length prefix of one size-byte record at the start of
// frame, the layout every producer shares, and returns the record and its
// body.
func layFrame(frame []byte, size int) (rec, body []byte) {
	rec = frame[:recordLenLen+size]
	binary.BigEndian.PutUint32(rec, uint32(size))
	return rec, rec[recordLenLen:]
}

// sweepTable holds a server's sweep: entry i of segment seg is record i of the
// basis its source sweeps seg with. A swept record is a constant, so it is
// asked for once and every session writes the same bytes; the table never
// recycles them. Entries are filled on first use (Server.sweepRecord): a server
// nobody has fetched from should not have paid to frame its object, nor one
// whose source holds a segment not whole for its n entries (nil until then).
type sweepTable struct {
	n    int
	segs []atomic.Pointer[[]atomic.Pointer[[]byte]]
}

// counterSource is the media-backed ModeDense RecordSource behind
// NewServerFromConfig: XNC3 counter records, whose coefficients are
// rlnc.CounterCoeffs(key, segment, index), so nothing random is drawn and
// nothing but the index travels. Indices 0…n−1 of a segment are its sweep,
// each encoded once per server into a record of its own (Sweep); the pump's
// repair records, batches encoded straight into wire frames by the parallel
// encoder, count from n (Records). No index is framed twice until a segment
// has sent 2^32 records.
type counterSource struct {
	obj  *rlnc.Object
	key  uint64
	next []uint32 // per segment: the index of the next repair record to frame

	// penc encodes a batch; coeffBuf holds its coefficient vectors, coeffs
	// views them, and payloads views the payloads of the frames under
	// construction. All of it is the pump's.
	penc             *rlnc.ParallelEncoder
	coeffBuf         []byte
	coeffs, payloads [][]byte
}

// newCounterSource is the dense source of obj under key, its repair indices
// counting from n, past the sweep's.
func newCounterSource(obj *rlnc.Object, key uint64, penc *rlnc.ParallelEncoder) *counterSource {
	next := make([]uint32, len(obj.Segments))
	for i := range next {
		next[i] = uint32(obj.Params.BlockCount)
	}
	return &counterSource{obj: obj, key: key, next: next, penc: penc}
}

func (c *counterSource) Info() SessionInfo { return objectInfo(c.obj, ModeDense) }

// Sweep implements RecordSource: counter record i of segment seg, encoded in
// a frame of its own. The media holds every segment whole. About 0.4 % of
// (key, segment) pairs give vectors 0…n−1 short of full rank; a session swept
// one asks, and the pump repairs it from index n on.
func (c *counterSource) Sweep(seg, i int) []byte {
	p := c.obj.Params
	segment := c.obj.Segments[seg]
	id, index := segment.ID(), uint32(i)
	size := rlnc.CounterWireSize(p)
	rec, body := layFrame(make([]byte, recordLenLen+size), size)
	coeffs := make([]byte, p.BlockCount)
	rlnc.CounterCoeffs(coeffs, c.key, id, index)
	rlnc.EncodeInto(rlnc.PutCounterHeader(body, id, index, p), segment, coeffs)
	return SealRecord(rec, p, ModeDense)
}

// Records implements RecordSource: claim an index of seg for every frame, lay
// the records out, write each vector F(key, seg, index) once into scratch, let
// one batch multiply write every payload where it will travel, seal. Where
// n > 4, a counter record is n − 4 bytes shorter than the frame it is laid in.
func (c *counterSource) Records(seg int, frames [][]byte) int {
	p := c.obj.Params
	segment := c.obj.Segments[seg]
	n, id := p.BlockCount, segment.ID()
	if len(c.coeffBuf) < len(frames)*n {
		c.coeffBuf = make([]byte, len(frames)*n)
	}
	first := c.next[seg]
	c.next[seg] += uint32(len(frames))
	coeffs, payloads := c.coeffs[:0], c.payloads[:0]
	for i, frame := range frames {
		index := first + uint32(i)
		rec, body := layFrame(frame, rlnc.CounterWireSize(p))
		frames[i] = rec
		cs := c.coeffBuf[i*n : (i+1)*n]
		rlnc.CounterCoeffs(cs, c.key, id, index)
		coeffs = append(coeffs, cs)
		payloads = append(payloads, rlnc.PutCounterHeader(body, id, index, p))
	}
	c.coeffs, c.payloads = coeffs, payloads
	if err := c.penc.EncodeBatchInto(payloads, segment, coeffs); err != nil {
		// Unreachable: the rows were cut to the segment's own shape.
		return 0
	}
	for _, rec := range frames {
		SealRecord(rec, p, ModeDense)
	}
	return len(frames)
}

// objectInfo is the session a media-backed server of obj declares.
func objectInfo(obj *rlnc.Object, mode WireMode) SessionInfo {
	return SessionInfo{Params: obj.Params, Segments: len(obj.Segments), Length: int64(obj.Length), Mode: mode}
}

// systematicSource is the media-backed ModeSystematic RecordSource behind
// NewServerFromConfig: every source block once, as its sweep, then the XOR
// repair → dense tail part of the systematic schedule per segment on request.
type systematicSource struct {
	obj *rlnc.Object

	// rng is the source's one coefficient stream, seeded once from the
	// server's seed and drawn from for as long as the source lives (the pump
	// is single-goroutine, so it needs no lock): two sources built alike emit
	// the same records for the same sequence of Records calls.
	rng *rand.Rand

	sysEncs []*rlnc.SystematicEncoder // one cycling schedule encoder per segment
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

// Sweep implements RecordSource: source block i of segment seg, narrowed to
// XNC2. The media holds every segment whole.
func (o *systematicSource) Sweep(seg, i int) []byte {
	coeffs := make([]byte, o.obj.Params.BlockCount)
	coeffs[i] = 1
	segment := o.obj.Segments[seg]
	// The params split the media, so they are valid.
	rec, _ := FrameRecord(&rlnc.CodedBlock{SegmentID: segment.ID(), Coeffs: coeffs, Payload: segment.Block(i)}, ModeSystematic)
	return rec
}

// Records implements RecordSource with repair only: the sessions the pump
// feeds have had the sweep and asked for more. The per-segment encoder cycles
// XOR repair → dense tail, and each block is copied straight into its frame —
// binary blocks narrowed to the compact GF(2) encoding — before the next
// RepairBlock call reuses its storage.
func (o *systematicSource) Records(seg int, frames [][]byte) int {
	se := o.sysEncs[seg]
	for i, frame := range frames {
		frames[i] = frameBlock(frame, se.RepairBlock(), o.obj.Params, ModeSystematic)
	}
	return len(frames)
}
