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
	"testing"
	"time"

	"extremenc/internal/gf256"
	"extremenc/internal/rlnc"
)

// fuzzSession builds a well-formed session stream — header plus records —
// that the mutator can then damage byte by byte.
func fuzzSession(f *testing.F, mutate func(stream []byte) []byte) []byte {
	f.Helper()
	p := rlnc.Params{BlockCount: 4, BlockSize: 16}
	media := make([]byte, p.SegmentSize())
	rand.New(rand.NewSource(3)).Read(media)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	h := SessionInfo{Params: p, Segments: 1, Length: int64(len(media))}
	if _, err := buf.Write(appendSessionHeader(nil, handshake{hdr: h})); err != nil {
		f.Fatal(err)
	}
	enc := rlnc.NewEncoder(obj.Segments[0], rand.New(rand.NewSource(4)))
	for i := 0; i < p.BlockCount+2; i++ {
		rec, err := FrameRecord(enc.NextBlock(), ModeDense)
		if err != nil {
			f.Fatal(err)
		}
		buf.Write(rec)
	}
	stream := buf.Bytes()
	if mutate != nil {
		stream = mutate(append([]byte(nil), stream...))
	}
	return stream
}

// inPlaceSessions are healthy sessions, and their objects, that exercise the
// in-place record path, where records are parsed where they lie in the
// session reader: a record straddling the pooled reader's 64 KiB buffer (five
// segments of ~4 KiB records, round robin), a record longer than that buffer
// (k = 64 KiB, read through a reader sized to it), and a systematic session
// whose source blocks arrive after XOR repair rows that already hold their
// columns.
func inPlaceSessions(tb testing.TB) (streams, objects [][]byte) {
	dense := func(records int) func(*rlnc.Segment, *rand.Rand) []*rlnc.CodedBlock {
		return func(seg *rlnc.Segment, rng *rand.Rand) []*rlnc.CodedBlock {
			enc := rlnc.NewEncoder(seg, rng)
			blocks := make([]*rlnc.CodedBlock, records)
			for i := range blocks {
				blocks[i] = enc.NextBlock()
			}
			return blocks
		}
	}
	repairFirst := func(seg *rlnc.Segment, _ *rand.Rand) []*rlnc.CodedBlock {
		xor := func(cols ...int) *rlnc.CodedBlock {
			b := &rlnc.CodedBlock{SegmentID: seg.ID(), Coeffs: make([]byte, 4), Payload: make([]byte, 16)}
			for _, c := range cols {
				b.Coeffs[c] = 1
				gf256.XorSlice(b.Payload, seg.Block(c))
			}
			return b
		}
		return []*rlnc.CodedBlock{xor(0, 1), xor(1, 2, 3), xor(0), xor(2), xor(1), xor(3)}
	}
	for _, s := range []struct {
		p      rlnc.Params
		segs   int
		mode   WireMode
		blocks func(*rlnc.Segment, *rand.Rand) []*rlnc.CodedBlock
	}{
		{rlnc.Params{BlockCount: 4, BlockSize: 4000}, 5, ModeDense, dense(4)},
		{rlnc.Params{BlockCount: 1, BlockSize: 64 << 10}, 1, ModeDense, dense(1)},
		{rlnc.Params{BlockCount: 4, BlockSize: 16}, 1, ModeSystematic, repairFirst},
	} {
		stream, object := sessionOf(tb, s.p, s.segs, s.mode, s.blocks)
		streams, objects = append(streams, stream), append(objects, object)
	}
	return streams, objects
}

// TestInPlaceSessionsDecode: the in-place fuzz seeds are healthy sessions —
// each decodes to its object.
func TestInPlaceSessionsDecode(t *testing.T) {
	streams, objects := inPlaceSessions(t)
	for i, s := range streams {
		res, err := pipeFetch(t, s, DefaultFetcherConfig())
		if err != nil || !bytes.Equal(res.Payload, objects[i]) {
			t.Fatalf("session %d: %v, payload intact %v", i, err, bytes.Equal(res.Payload, objects[i]))
		}
	}
}

// sessionOf builds a session stream of a segs-segment object of p in mode —
// the header, then the records blocks makes of each segment, interleaved
// round robin — and returns it with the object.
func sessionOf(tb testing.TB, p rlnc.Params, segs int, mode WireMode, blocks func(seg *rlnc.Segment, rng *rand.Rand) []*rlnc.CodedBlock) (stream, media []byte) {
	tb.Helper()
	media = make([]byte, segs*p.SegmentSize())
	rng := rand.New(rand.NewSource(6))
	rng.Read(media)
	obj, err := rlnc.Split(media, p)
	if err != nil {
		tb.Fatal(err)
	}
	h := SessionInfo{Params: p, Segments: segs, Length: int64(len(media)), Mode: mode}
	stream = appendSessionHeader(nil, handshake{hdr: h})
	var perSeg [][]*rlnc.CodedBlock
	for _, seg := range obj.Segments {
		perSeg = append(perSeg, blocks(seg, rng))
	}
	for i := range perSeg[0] {
		for _, bs := range perSeg {
			rec, err := FrameRecord(bs[i], mode)
			if err != nil {
				tb.Fatal(err)
			}
			stream = append(stream, rec...)
		}
	}
	return stream, media
}

// pipeFetch runs a single-attempt fetch of data, written into a net.Pipe
// whose far end also takes whatever need records the fetcher writes.
func pipeFetch(t *testing.T, data []byte, cfg FetcherConfig) (*FetchResult, error) {
	a, b := net.Pipe()
	go io.Copy(io.Discard, b) //nolint:errcheck // ends when b closes
	go func() {
		b.Write(data)
		b.Close()
	}()
	defer a.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cfg.MaxAttempts = 1
	return newTestFetcher(t, func(context.Context) (net.Conn, error) { return a, nil }, cfg).Fetch(ctx)
}

// FuzzFetchRecords feeds arbitrary bytes to the client record loop through
// a real net.Pipe, once into the fetcher's decoders and once into a recoder
// bank sink, and drains them through a RawClient. Whatever the stream claims
// — hostile length prefixes, truncated records, out-of-range segment IDs,
// corrupted handshakes — no client may panic or over-allocate; the fetch must
// always produce stats and only report success with an intact payload; a sink
// fetch must never report a payload or a rank above the generation size; and
// the drain must count no more complete records, or bytes, than the input
// holds after the handshake.
func FuzzFetchRecords(f *testing.F) {
	// A complete healthy session (the only seed that decodes), then
	// targeted damage to each protocol layer.
	f.Add(fuzzSession(f, nil))
	f.Add(fuzzSession(f, func(s []byte) []byte { // adversarial length prefix
		binary.BigEndian.PutUint32(s[protoHeaderLen:], 0xFFFFFFF0)
		return s
	}))
	f.Add(fuzzSession(f, func(s []byte) []byte { // truncated final record
		return s[:len(s)-7]
	}))
	f.Add(fuzzSession(f, func(s []byte) []byte { // hostile segment ID, CRC refreshed
		size := int(binary.BigEndian.Uint32(s[protoHeaderLen:]))
		body := s[protoHeaderLen+4 : protoHeaderLen+4+size]
		binary.BigEndian.PutUint32(body[4:], 1<<30)
		binary.BigEndian.PutUint32(body[size-4:], crc32.ChecksumIEEE(body[:size-4]))
		return s
	}))
	f.Add(fuzzSession(f, func(s []byte) []byte { // bit damage mid-record
		s[protoHeaderLen+20] ^= 0x40
		return s
	}))
	f.Add([]byte{})
	f.Add([]byte(protoMagic))
	f.Add(bytes.Repeat([]byte{0xFF}, protoHeaderLen+8))
	f.Add(fuzzSession(f, func(s []byte) []byte { // a length of 2^50 bytes in the one segment
		h := SessionInfo{Params: rlnc.Params{BlockCount: 4, BlockSize: 16}, Segments: 1, Length: 1 << 50}
		return append(appendSessionHeader(nil, handshake{hdr: h}), s[protoHeaderLen:]...)
	}))

	// A counter session — XNC3 records, two of them reusing an index, one of
	// those forged — whole, and with the first record's index damaged.
	media := make([]byte, 64)
	rand.New(rand.NewSource(5)).Read(media)
	obj, err := rlnc.Split(media, rlnc.Params{BlockCount: 4, BlockSize: 16})
	if err != nil {
		f.Fatal(err)
	}
	counter := counterStream(f, obj, 0xC0FFEE, 2)
	f.Add(counter)
	damaged := bytes.Clone(counter)
	damaged[protoHeaderLen+tlvLen+4+16] ^= 0x01
	f.Add(damaged)

	streams, _ := inPlaceSessions(f)
	for _, s := range streams {
		f.Add(s)
	}

	// Sessions that make the fetcher ask: the first n records hold a damaged
	// one, or repeat a record, so the grant's count runs out short of rank
	// and the rest of the stream is read after a need record.
	f.Add(fuzzSession(f, func(s []byte) []byte {
		s[protoHeaderLen+4+8] ^= 0x01 // a byte of the first record: its CRC fails
		return s
	}))
	f.Add(fuzzSession(f, func(s []byte) []byte {
		size := recordLenLen + int(binary.BigEndian.Uint32(s[protoHeaderLen:]))
		first := s[protoHeaderLen : protoHeaderLen+size]
		return append(append(bytes.Clone(s[:protoHeaderLen+size]), first...), s[protoHeaderLen+size:]...)
	}))

	f.Fuzz(func(t *testing.T, data []byte) {
		ledger := func(stats *FetchStats) {
			if stats == nil {
				t.Fatal("fetch returned nil stats")
			}
			if rejected := stats.Corrupt + stats.Malformed + stats.BadSegment; rejected > stats.Records {
				t.Fatalf("rejected %d records but only %d arrived", rejected, stats.Records)
			}
		}
		res, err := pipeFetch(t, data, DefaultFetcherConfig())
		ledger(res.Stats)
		if err == nil && res.Payload == nil {
			t.Fatal("fetch reported success without a payload")
		}
		if err != nil && res.Payload != nil {
			t.Fatal("fetch reported failure with a payload")
		}

		bank, n := recoderBank{}, 0
		cfg := DefaultFetcherConfig()
		cfg.Sink = bank
		cfg.SessionHook = func(si SessionInfo) { n = si.Params.BlockCount }
		res, _ = pipeFetch(t, data, cfg)
		ledger(res.Stats)
		if res.Payload != nil || len(res.Segments) != 0 {
			t.Fatalf("a sink fetch reported a %d-byte payload and %d segments", len(res.Payload), len(res.Segments))
		}
		for seg, rec := range bank {
			if rec.Rank() > n || res.Ranks[seg] != rec.Rank() {
				t.Fatalf("segment %d: bank rank %d, result rank %d, generation size %d", seg, rec.Rank(), res.Ranks[seg], n)
			}
		}

		conn := &streamConn{}
		conn.r.Reset(data)
		rc, err := NewRawClient(conn)
		if err != nil {
			return
		}
		for {
			if _, err := rc.Next(); err != nil {
				break
			}
		}
		p := rc.Params()
		smallest := recordLenLen + min(rlnc.WireSize(p), rlnc.XorWireSize(p), rlnc.CounterWireSize(p))
		if after := int64(len(data) - protoHeaderLen); rc.Bytes() > after || rc.Records()*int64(smallest) > after {
			t.Fatalf("drained %d records, %d bytes from %d bytes after the handshake", rc.Records(), rc.Bytes(), after)
		}
	})
}

// The control-record fuzz targets share one property check and differ only in
// the seeds they start from. FuzzDecisionRecord and FuzzNeedRecord keep the
// admission and need-record corpora they always had; FuzzControlRecord starts
// from every family, header TLVs and resume state included, and is the one
// target the live fuzz budget runs.
func FuzzDecisionRecord(f *testing.F) { fuzzControl(f, decisionSeeds) }
func FuzzNeedRecord(f *testing.F)     { fuzzControl(f, needSeeds) }
func FuzzControlRecord(f *testing.F) {
	fuzzControl(f, decisionSeeds, needSeeds, headerSeeds, stateSeeds)
}

var fuzzHeader = SessionInfo{Params: rlnc.Params{BlockCount: 4, BlockSize: 16}, Segments: 1, Length: 64}

// decisionSeeds are admission decisions, and what used to precede a header.
func decisionSeeds(f *testing.F) {
	decision := func(d admissionDecision, mutate func([]byte) []byte) []byte {
		rec := appendDecision(nil, d)
		if mutate != nil {
			rec = mutate(rec)
		}
		return rec
	}
	plain := appendSessionHeader(nil, handshake{hdr: fuzzHeader})
	f.Add(decision(admissionDecision{retryAfter: 250 * time.Millisecond}, nil))
	// Protocol v4's REDIRECT, which the property check requires refused.
	f.Add(legacyRedirect("127.0.0.1:9999"))
	f.Add(decision(admissionDecision{}, func(rec []byte) []byte {
		rec[len(rec)-1] ^= 0x01 // flipped CRC bit
		return rec
	}))
	f.Add(decision(admissionDecision{}, func(rec []byte) []byte {
		rec[8] = 7 // unknown code, CRC refreshed
		resealControl(rec)
		return rec
	}))
	f.Add(legacyRedirect("x")[:6]) // truncated mid-record
	f.Add(decision(admissionDecision{}, func(rec []byte) []byte {
		rec[8] = 0 // the v3 explicit ACCEPT, then a header
		resealControl(rec)
		return append(rec, plain...)
	}))
	f.Add(plain)
	f.Add([]byte(decisionMagic))
	f.Add([]byte{})
}

// fuzzNeed is a valid need record of a needSegments-segment session.
var fuzzNeed = appendNeed(nil, []uint32{3, 0})

// needSeeds are valid need records and their near misses.
func needSeeds(f *testing.F) {
	need := func(mutate func(rec []byte), reseal bool) []byte {
		rec := bytes.Clone(fuzzNeed)
		mutate(rec)
		if reseal {
			resealControl(rec)
		}
		return rec
	}
	f.Add(bytes.Clone(fuzzNeed))
	f.Add(need(func(rec []byte) { copy(rec, decisionMagic) }, true)) // another record's magic
	f.Add(need(func(rec []byte) { rec[11] = 1 }, true))              // segment count 1, checksum good
	f.Add(need(func(rec []byte) { rec[11] = 3 }, false))             // segment count 3, checksum stale
	f.Add(need(func(rec []byte) { rec[len(rec)-1] ^= 0x80 }, false)) // flipped checksum bit
	for _, cut := range []int{0, 3, 4, 8, len(fuzzNeed) - 1} {
		f.Add(bytes.Clone(fuzzNeed[:cut]))
	}
	f.Add(append(bytes.Clone(fuzzNeed), 0))                        // one byte too many
	f.Add(appendNeed(nil, []uint32{1 << 31, 7}))                   // deficits over any n
	f.Add(appendNeed(nil, []uint32{3, 0, 0}))                      // a body over the bound
	f.Add(appendControl(nil, needMagic, make([]byte, 4)))          // protocol v4's record
	f.Add(append(bytes.Clone(fuzzNeed), bytes.Clone(fuzzNeed)...)) // two in a row
}

// headerSeeds are session headers: TLVs, and fields the reader must refuse.
func headerSeeds(f *testing.F) {
	plain := appendSessionHeader(nil, handshake{hdr: fuzzHeader})
	tlv := func(fields ...byte) []byte {
		return rebody(plain, func(b []byte) []byte { return append(b, fields...) })
	}
	f.Add(appendSessionHeader(nil, handshake{hdr: fuzzHeader, tctx: traceContext{trace: 0xDEADBEEFCAFE, root: 42}}))
	f.Add(tlv(9, 3, 0xAA, 0xBB, 0xCC, tlvTrace, 8, 0, 0, 0, 0, 0, 0, 0, 7, 250, 0)) // unknown fields skipped
	f.Add(tlv(tlvTrace, 200, 1, 2))                                                 // field overruns the header
	f.Add(tlv(tlvRootSpan))                                                         // field truncated to its type
	f.Add(tlv(tlvTrace, 4, 0, 0, 0, 7))                                             // known field, wrong size
	f.Add(append(binary.BigEndian.AppendUint32([]byte(protoMagic), 0xFFFFFFF0), plain[8:]...))
	f.Add(appendSessionHeader(nil, handshake{hdr: SessionInfo{Params: fuzzHeader.Params, Segments: 1, Length: 1 << 50}}))
	counter := appendSessionHeader(nil, handshake{hdr: fuzzHeader, flags: hsFlagCounter, key: 0xC0FFEE})
	f.Add(counter)
	f.Add(rebody(counter, func(b []byte) []byte { return b[:headerFixedLen] })) // the flag without its key
}

// stateSeeds are resume-state blobs.
func stateSeeds(f *testing.F) {
	state, err := stateFetcher(f, fuzzHeader.Params, 5).State()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(state))
	f.Add(append(bytes.Clone(state), 0))
	f.Add(rebody(state, func(b []byte) []byte { binary.BigEndian.PutUint32(b[4:], 1<<31); return b }))
}

// fuzzControl seeds f from each family and feeds arbitrary bytes to every
// control-record reader at once: readHandshake (the server's one opening
// record), the need record's reader and restoreState. Whatever arrives, none
// may panic; each refuses with its own error class; a declared body over a
// reader's bound is refused after the 8-byte prefix; the handshake and the need
// record are read to their last byte and no further; and whatever a reader
// accepts re-marshals to a record that parses to the same value.
func fuzzControl(f *testing.F, families ...func(*testing.F)) {
	for _, seed := range families {
		seed(f)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		declared := -1
		if len(data) >= 8 {
			declared = int(binary.BigEndian.Uint32(data[4:]))
		}

		cr := &countReader{r: bytes.NewReader(data)}
		hs, err := readHandshake(cr)
		switch {
		case declared > handshakeBodyMax && (err == nil || cr.n != 8):
			t.Fatalf("%d-byte body over the bound: %v after %d bytes", declared, err, cr.n)
		case err != nil && !errors.Is(err, ErrBadHandshake):
			t.Fatalf("readHandshake failed with %v, want ErrBadHandshake", err)
		case err == nil:
			if cr.n != controlOverhead+declared {
				t.Fatalf("read %d bytes of a %d-byte record", cr.n, controlOverhead+declared)
			}
			rec := appendSessionHeader(nil, hs)
			if hs.dec != nil {
				if declared != decisionLen || data[8] != decisionBusy {
					t.Fatalf("accepted a decision no server writes: %x", data[:controlOverhead+declared])
				}
				rec = appendDecision(nil, *hs.dec)
			}
			if again, err := readHandshake(bytes.NewReader(rec)); err != nil || !reflect.DeepEqual(again, hs) {
				t.Fatalf("re-marshaled %+v parses as %+v, %v", hs, again, err)
			}
		}

		cr = &countReader{r: bytes.NewReader(data)}
		deficits := make([]uint32, needSegments)
		err = readNeed(cr, make([]byte, needLen(needSegments)), deficits)
		switch {
		case declared > needLen(needSegments)-controlOverhead && (err == nil || cr.n != 8):
			t.Fatalf("%d-byte need body over the bound: %v after %d bytes", declared, err, cr.n)
		case cr.n > needLen(needSegments):
			t.Fatalf("need reader took %d bytes", cr.n)
		case err != nil && !errors.Is(err, ErrBadNeedRecord):
			t.Fatalf("readNeed failed with %v, want ErrBadNeedRecord", err)
		case err == nil && !bytes.HasPrefix(data, appendNeed(nil, deficits)):
			t.Fatalf("readNeed(%x) accepted deficits %v, which marshal to %x", data, deficits, appendNeed(nil, deficits))
		}

		var st Fetcher
		if err := st.restoreState(data); err != nil {
			if !errors.Is(err, ErrBadResumeState) {
				t.Fatalf("restoreState failed with %v, want ErrBadResumeState", err)
			}
			return
		}
		blob, err := st.State()
		if err != nil {
			t.Fatal(err)
		}
		var again Fetcher
		if err := again.restoreState(blob); err != nil || !reflect.DeepEqual(again.Ranks(), st.Ranks()) {
			t.Fatalf("re-marshaled state restores to %v, want %v (%v)", again.Ranks(), st.Ranks(), err)
		}
	})
}
