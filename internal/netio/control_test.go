package netio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"extremenc/internal/rlnc"
)

// countReader counts the bytes a reader under test consumed.
type countReader struct {
	r io.Reader
	n int
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// resealControl recomputes a control record's trailing CRC, so a test can
// forge a record whose every check but the one under test passes.
func resealControl(rec []byte) {
	end := len(rec) - 4
	binary.BigEndian.PutUint32(rec[end:], crc32.ChecksumIEEE(rec[:end]))
}

// rebody rebuilds a control record around an edited copy of its body.
func rebody(rec []byte, edit func(body []byte) []byte) []byte {
	return appendControl(nil, string(rec[:4]), edit(bytes.Clone(rec[8:len(rec)-4])))
}

// stateFetcher returns a Fetcher holding progress on segs segments of p:
// segment i at rank i mod (n+1), so partial, empty and complete decoders all
// appear in its State.
func stateFetcher(tb testing.TB, p rlnc.Params, segs int) *Fetcher {
	tb.Helper()
	obj, err := rlnc.Split(testMedia(tb, segs*p.SegmentSize(), 5), p)
	if err != nil {
		tb.Fatal(err)
	}
	f := newFetcher(nil, DefaultFetcherConfig())
	f.leaf = &leaf{decs: make(map[uint32]*rlnc.Decoder, segs)}
	for i, seg := range obj.Segments {
		dec, err := rlnc.NewDecoder(p)
		if err != nil {
			tb.Fatal(err)
		}
		enc := rlnc.NewEncoder(seg, rand.New(rand.NewSource(int64(i))))
		for dec.Rank() < i%(p.BlockCount+1) {
			if _, err := dec.AddBlock(enc.NextBlock()); err != nil {
				tb.Fatal(err)
			}
		}
		f.leaf.decs[uint32(i)] = dec
	}
	return f
}

// needSegments is the segment count of the session whose need records the
// control-record tests read: a server reads them for its own count.
const needSegments = 2

// readAny hands rec to the reader its magic names: the need record (of a
// needSegments-segment session) and the resume state to theirs, anything else
// to readHandshake. It returns what the reader parsed, and how many bytes of
// rec it consumed.
func readAny(rec []byte) (got any, read int, err error) {
	cr := &countReader{r: bytes.NewReader(rec)}
	switch {
	case bytes.HasPrefix(rec, []byte(needMagic)):
		deficits := make([]uint32, needSegments)
		got, err = deficits, readNeed(cr, make([]byte, needLen(needSegments)), deficits)
	case bytes.HasPrefix(rec, []byte(stateMagic)):
		var f Fetcher
		if err = f.restoreState(rec); err == nil {
			got = f.Ranks()
		}
		cr.n = len(rec)
	default:
		var hs handshake
		hs, err = readHandshake(cr)
		got = hs
	}
	if err != nil {
		got = nil
	}
	return got, cr.n, err
}

// TestControlRecords drives the control-record readers — readHandshake, the
// need record's and restoreState — over one table of what a peer or a disk
// can hand them: every record well formed, then damaged in each field the
// codec or the body parser checks.
func TestControlRecords(t *testing.T) {
	p := rlnc.Params{BlockCount: 4, BlockSize: 64}
	hdr := SessionInfo{Params: p, Segments: 1, Length: 100}
	plain := appendSessionHeader(nil, handshake{hdr: hdr})
	tc := traceContext{trace: 0xDEADBEEFCAFE, root: 42}
	traced := appendSessionHeader(nil, handshake{hdr: hdr, tctx: tc})
	counter := appendSessionHeader(nil, handshake{hdr: hdr, flags: hsFlagCounter, key: 0xC0FFEE})
	tlv := func(fields ...byte) []byte {
		return rebody(plain, func(b []byte) []byte { return append(b, fields...) })
	}
	busy := admissionDecision{retryAfter: 1500 * time.Millisecond}
	decision := func(d admissionDecision) []byte { return appendDecision(nil, d) }
	sf := stateFetcher(t, p, 6)
	state, err := sf.State()
	if err != nil {
		t.Fatal(err)
	}
	setU32 := func(rec []byte, off int, v uint32) []byte {
		return rebody(rec, func(b []byte) []byte { binary.BigEndian.PutUint32(b[off:], v); return b })
	}
	over := func(magic string) []byte { // declares a body of ~4 GiB
		return append(binary.BigEndian.AppendUint32([]byte(magic), 0xFFFFFFF0), make([]byte, 64)...)
	}
	need := appendNeed(nil, []uint32{3, 0})

	for _, c := range []struct {
		name string
		rec  []byte
		want any   // what the reader parsed
		err  error // or the error class it refused with
	}{
		{"plain header", plain, handshake{hdr: hdr}, nil},
		{"traced header", traced, handshake{hdr: hdr, tctx: tc}, nil},
		{"unknown TLVs are skipped", tlv(
			9, 3, 0xAA, 0xBB, 0xCC,
			tlvTrace, 8, 0, 0, 0, 0, 0, 0, 0, 7,
			250, 0,
			tlvRootSpan, 8, 0, 0, 0, 0, 0, 0, 0, 9,
		), handshake{hdr: hdr, tctx: traceContext{trace: 7, root: 9}}, nil},
		{"counter header", counter, handshake{hdr: hdr, flags: hsFlagCounter, key: 0xC0FFEE}, nil},
		{"key without the counter flag is dropped", tlv(tlvCoeffKey, 8, 0, 0, 0, 0, 0, 0, 0, 5), handshake{hdr: hdr}, nil},
		{"counter flag without a key", setU32(plain, 28, hsFlagCounter), nil, ErrBadHandshake},
		{"counter key of 4 bytes", rebody(setU32(plain, 28, hsFlagCounter), func(b []byte) []byte { return append(b, tlvCoeffKey, 4, 0, 0, 0, 5) }), nil, ErrBadHandshake},
		{"counter flag in systematic mode", appendSessionHeader(nil, handshake{hdr: SessionInfo{Params: p, Segments: 1, Length: 100, Mode: ModeSystematic}, flags: hsFlagCounter, key: 1}), nil, ErrBadHandshake},
		{"TLV overruns the header", tlv(tlvTrace, 200, 1, 2), nil, ErrBadHandshake},
		{"TLV truncated to its type", tlv(tlvTrace), nil, ErrBadHandshake},
		{"trace TLV of 4 bytes", tlv(tlvTrace, 4, 0, 0, 0, 7), nil, ErrBadHandshake},
		{"unknown TLV overruns", tlv(9, 1), nil, ErrBadHandshake},
		{"header checksum", append(bytes.Clone(plain[:len(plain)-1]), plain[len(plain)-1]^1), nil, ErrBadHandshake},
		{"unknown magic", append([]byte("YNCP"), plain[4:]...), nil, ErrBadHandshake},
		{"header truncated", plain[:len(plain)-1], nil, ErrBadHandshake},
		{"header body short", rebody(plain, func(b []byte) []byte { return b[:headerFixedLen-1] }), nil, ErrBadHandshake},
		{"protocol v3", setU32(plain, 0, 3), nil, ErrBadHandshake},
		{"unknown flag", appendSessionHeader(nil, handshake{hdr: hdr, flags: 1 << 9}), nil, ErrBadHandshake},
		{"length of 2^50 in one segment", appendSessionHeader(nil, handshake{hdr: SessionInfo{Params: p, Segments: 1, Length: 1 << 50}}), nil, ErrBadHandshake},
		{"segments over the bound", appendSessionHeader(nil, handshake{hdr: SessionInfo{Params: p, Segments: maxSegments + 1, Length: (maxSegments + 1) * 256}}), nil, ErrBadHandshake},
		{"segments at the bound", appendSessionHeader(nil, handshake{hdr: SessionInfo{Params: p, Segments: maxSegments, Length: maxSegments * 256}}), handshake{hdr: SessionInfo{Params: p, Segments: maxSegments, Length: maxSegments * 256}}, nil},
		{"header body over bound", over(protoMagic), nil, ErrBadHandshake},
		{"busy", decision(busy), handshake{dec: &busy}, nil},
		// Protocol v4's REDIRECT: the coordinator routes leaves now.
		{"redirect", legacyRedirect("10.0.0.7:9000"), nil, ErrBadHandshake},
		{"v3 explicit accept", rebody(decision(busy), func(b []byte) []byte { b[0] = 0; return b }), nil, ErrBadHandshake},
		{"decision truncated", rebody(decision(busy), func(b []byte) []byte { return b[:4] }), nil, ErrBadHandshake},
		{"need", need, []uint32{3, 0}, nil},
		// Deficits above the generation size parse; the grant clamps them
		// (TestCreditFloodNeverRaisesCredit).
		{"need deficits over n", appendNeed(nil, []uint32{5, 1 << 31}), []uint32{5, 1 << 31}, nil},
		{"need wrong segment count", appendNeed(nil, []uint32{3}), nil, ErrBadNeedRecord},
		// Protocol v4's need record: a zero reserved word, no deficits.
		{"need reserved word", appendControl(nil, needMagic, make([]byte, 4)), nil, ErrBadNeedRecord},
		{"need body short", rebody(need, func(b []byte) []byte { return b[:len(b)-1] }), nil, ErrBadNeedRecord},
		{"need body long", appendNeed(nil, []uint32{3, 0, 0}), nil, ErrBadNeedRecord},
		{"need checksum", append(bytes.Clone(need[:len(need)-1]), need[len(need)-1]^1), nil, ErrBadNeedRecord},
		{"need body over bound", over(needMagic), nil, ErrBadNeedRecord},
		{"state", state, sf.Ranks(), nil},
		{"state trailing byte", append(bytes.Clone(state), 0), nil, ErrBadResumeState},
		{"state version 1", setU32(state, 0, 1), nil, ErrBadResumeState},
		{"state count over entries", setU32(state, 4, 1<<31), nil, ErrBadResumeState},
		{"state entry overruns", setU32(state, 12, 1<<20), nil, ErrBadResumeState},
		{"state body over bound", over(stateMagic), nil, ErrBadResumeState},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, read, err := readAny(c.rec)
			if !errors.Is(err, c.err) || (c.err == nil) != (err == nil) {
				t.Fatalf("err = %v, want %v", err, c.err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("parsed %+v, want %+v", got, c.want)
			}
			if err == nil {
				if read != len(c.rec) {
					t.Fatalf("read %d bytes of a %d-byte record", read, len(c.rec))
				}
				return
			}
			if bytes.Equal(c.rec[4:8], []byte{0xFF, 0xFF, 0xFF, 0xF0}) {
				// Refused after the prefix, with nothing sized by it.
				if !bytes.HasPrefix(c.rec, []byte(stateMagic)) && read != 8 {
					t.Fatalf("read %d bytes, want the 8-byte prefix", read)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 100; i++ {
					readAny(c.rec) //nolint:errcheck
				}
				runtime.ReadMemStats(&after)
				if per := (after.TotalAlloc - before.TotalAlloc) / 100; per > 64<<10 {
					t.Fatalf("%d bytes allocated per refused read", per)
				}
			}
		})
	}
}

// TestFetcherStateDeterministic: the same progress serializes to the same
// bytes, call after call, and restores to the same ranks.
func TestFetcherStateDeterministic(t *testing.T) {
	f := stateFetcher(t, rlnc.Params{BlockCount: 4, BlockSize: 32}, 16)
	first, err := f.State()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := f.State()
		if err != nil || !bytes.Equal(again, first) {
			t.Fatalf("call %d: State() differs from the first call (%v)", i+2, err)
		}
	}
	var g Fetcher
	if err := g.restoreState(first); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Ranks(), f.Ranks()) {
		t.Fatalf("restored ranks %v, want %v", g.Ranks(), f.Ranks())
	}
}

// TestFetchRefusesHostileLength: a checksummed session header declaring 2^50
// bytes in one segment used to be accepted, and Fetch panicked sizing the
// reassembled object once the segment decoded. It is a bad handshake now,
// refused before any record is read.
func TestFetchRefusesHostileLength(t *testing.T) {
	p := rlnc.Params{BlockCount: 4, BlockSize: 16}
	obj, err := rlnc.Split(testMedia(t, p.SegmentSize(), 8), p)
	if err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	go func() {
		defer server.Close()
		h := SessionInfo{Params: p, Segments: 1, Length: 1 << 50}
		if _, err := server.Write(appendSessionHeader(nil, handshake{hdr: h})); err != nil {
			return
		}
		enc := rlnc.NewEncoder(obj.Segments[0], rand.New(rand.NewSource(9)))
		for i := 0; i < 2*p.BlockCount; i++ {
			rec, _ := FrameRecord(enc.NextBlock(), ModeDense)
			if _, err := server.Write(rec); err != nil {
				return
			}
		}
	}()
	_, stats, err := Fetch(context.Background(), client)
	if !errors.Is(err, ErrBadHandshake) || stats.Records != 0 {
		t.Fatalf("Fetch = %v after %d records, want ErrBadHandshake before any", err, stats.Records)
	}
}

// TestFetchHostileLengthPinsNothing: a checksummed header may declare a
// multi-GiB object the segment count agrees with. The leaf sizes its object
// buffer from it only once a record has passed the checksum, shape and
// segment-range checks, so a header followed by nothing but damaged records
// costs a few KiB, not the declared length. (6 GiB is 49,152 segments at this
// shape, under maxSegments; at n=16, k=1024 the header itself is refused.)
func TestFetchHostileLengthPinsNothing(t *testing.T) {
	p := rlnc.Params{BlockCount: 32, BlockSize: 4096}
	const length = 6 << 30
	h := SessionInfo{Params: p, Segments: length / p.SegmentSize(), Length: length}
	obj, err := rlnc.Split(testMedia(t, p.SegmentSize(), 10), p)
	if err != nil {
		t.Fatal(err)
	}
	wire := appendSessionHeader(nil, handshake{hdr: h})
	enc := rlnc.NewEncoder(obj.Segments[0], rand.New(rand.NewSource(11)))
	const records = 40
	for range records {
		rec, err := FrameRecord(enc.NextBlock(), ModeDense)
		if err != nil {
			t.Fatal(err)
		}
		rec[len(rec)-1] ^= 0x5A // the CRC no longer matches
		wire = append(wire, rec...)
	}
	fetch := func() *FetchStats {
		conn := &streamConn{}
		conn.r.Reset(wire)
		cfg := DefaultFetcherConfig()
		cfg.MaxAttempts = 1
		res, err := newTestFetcher(t, func(context.Context) (net.Conn, error) { return conn, nil }, cfg).Fetch(context.Background())
		if !errors.Is(err, ErrStreamTruncated) || res.Payload != nil {
			t.Fatalf("fetch: %v, %d-byte payload; want a truncated stream and none", err, len(res.Payload))
		}
		return res.Stats
	}
	// The measured fetch must get the warm-up's pooled session reader back. A
	// sync.Pool keeps one slot per P and a GC empties it, so the warm-up and
	// the fetch run on one P with the collector off: otherwise about one run
	// in twelve reads another P's empty slot and allocates a fresh reader.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fetch() // warms the pooled session reader
	if raceEnabled {
		return // the race detector's sync.Pool drops the warmed reader at random
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats := fetch()
	runtime.ReadMemStats(&after)
	if stats.Corrupt != records {
		t.Fatalf("%d corrupt records of %d", stats.Corrupt, records)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Fatalf("a %d-byte header and %d damaged records allocated %d bytes, want < 64 KiB", int64(length), records, alloc)
	}
}
