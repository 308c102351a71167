package netio

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"net"
	"testing"
	"time"

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
	h := sessionHeader{params: p, segments: 1, length: int64(len(media))}
	if _, err := buf.Write(appendSessionHeader(nil, h, 0)); err != nil {
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

// FuzzFetchRecords feeds arbitrary bytes to the client record loop through
// a real net.Pipe. Whatever the stream claims — hostile length prefixes,
// truncated records, out-of-range segment IDs, corrupted handshakes — the
// client must neither panic nor over-allocate, must always produce stats,
// and must only report success with an intact payload.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := net.Pipe()
		go func() {
			b.Write(data)
			b.Close()
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		payload, stats, err := Fetch(ctx, a)
		if stats == nil {
			t.Fatal("fetch returned nil stats")
		}
		if err == nil && payload == nil {
			t.Fatal("fetch reported success without a payload")
		}
		if err != nil && payload != nil {
			t.Fatal("fetch reported failure with a payload")
		}
		if rejected := stats.Corrupt + stats.Malformed + stats.BadSegment; rejected > stats.Records {
			t.Fatalf("rejected %d records but only %d arrived", rejected, stats.Records)
		}
	})
}

// fuzzDecision marshals a decision record for seeding, optionally mutated.
func fuzzDecision(f *testing.F, d admissionDecision, mutate func([]byte) []byte) []byte {
	f.Helper()
	rec, err := appendDecision(nil, d)
	if err != nil {
		f.Fatal(err)
	}
	if mutate != nil {
		rec = mutate(rec)
	}
	return rec
}

// FuzzDecisionRecord feeds arbitrary bytes to the handshake dispatcher.
// Whatever arrives — forged decision records, flipped CRCs, unknown codes,
// truncated streams, or decision-then-header sequences — readHandshake must
// never panic, and any decision it does accept must itself be valid and
// re-marshalable: the parser admits exactly what a real server could write.
func FuzzDecisionRecord(f *testing.F) {
	f.Add(fuzzDecision(f, admissionDecision{code: admissionBusy, retryAfter: 250 * time.Millisecond}, nil))
	f.Add(fuzzDecision(f, admissionDecision{code: admissionRedirect, addr: "127.0.0.1:9999"}, nil))
	f.Add(fuzzDecision(f, admissionDecision{code: admissionBusy}, func(rec []byte) []byte {
		rec[len(rec)-1] ^= 0x01 // flipped CRC bit
		return rec
	}))
	f.Add(fuzzDecision(f, admissionDecision{code: admissionBusy}, func(rec []byte) []byte {
		rec[4] = 7 // unknown code, CRC refreshed
		binary.BigEndian.PutUint32(rec[len(rec)-4:], crc32.ChecksumIEEE(rec[:len(rec)-4]))
		return rec
	}))
	f.Add(fuzzDecision(f, admissionDecision{code: admissionRedirect, addr: "x"}, func(rec []byte) []byte {
		return rec[:6] // truncated mid-record
	}))
	// Explicit ACCEPT followed by a full session header, and a bare header.
	var accept bytes.Buffer
	hdr := sessionHeader{params: rlnc.Params{BlockCount: 4, BlockSize: 16}, segments: 1, length: 64}
	if err := writeDecision(&accept, admissionDecision{code: admissionAccept}); err != nil {
		f.Fatal(err)
	}
	if _, err := accept.Write(appendSessionHeader(nil, hdr, 0)); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), accept.Bytes()...))
	var bare bytes.Buffer
	if _, err := bare.Write(appendSessionHeader(nil, hdr, 0)); err != nil {
		f.Fatal(err)
	}
	f.Add(append([]byte(nil), bare.Bytes()...))
	f.Add([]byte(decisionMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		hs, err := readHandshake(bytes.NewReader(data))
		if err != nil {
			return
		}
		if hs.dec != nil {
			if verr := hs.dec.validate(); verr != nil {
				t.Fatalf("accepted invalid decision %+v: %v", hs.dec, verr)
			}
			if _, merr := appendDecision(nil, *hs.dec); merr != nil {
				t.Fatalf("accepted unmarshalable decision %+v: %v", hs.dec, merr)
			}
		}
		if hs.dec == nil || hs.dec.code == admissionAccept {
			// ACCEPT paths must have produced a header a client could serve.
			if verr := hs.hdr.params.Validate(); verr != nil {
				t.Fatalf("accepted handshake with bad params: %v", verr)
			}
		}
	})
}

// FuzzNeedRecord feeds arbitrary bytes to the parser of the protocol's one
// client→server record. There is exactly one valid need record — the reserved
// word is zero — so the parser must accept that and nothing else: no other
// magic, no reserved bit (checksummed or not), no stale checksum, no other
// length.
func FuzzNeedRecord(f *testing.F) {
	mutated := func(mutate func(rec []byte), refreshCRC bool) []byte {
		rec := append([]byte(nil), needRecord[:]...)
		mutate(rec)
		if refreshCRC {
			binary.BigEndian.PutUint32(rec[8:], crc32.ChecksumIEEE(rec[:8]))
		}
		return rec
	}
	f.Add(needRecord[:])
	f.Add(mutated(func(rec []byte) { copy(rec, decisionMagic) }, true)) // another record's magic
	f.Add(mutated(func(rec []byte) { rec[7] = 1 }, true))               // reserved word set, checksum good
	f.Add(mutated(func(rec []byte) { rec[7] = 1 }, false))              // reserved word set, checksum stale
	f.Add(mutated(func(rec []byte) { rec[11] ^= 0x80 }, false))         // flipped checksum bit
	for _, cut := range []int{0, 3, 4, 8, needRecordLen - 1} {
		f.Add(needRecord[:cut])
	}
	f.Add(append(needRecord[:], 0)) // one byte too many

	f.Fuzz(func(t *testing.T, data []byte) {
		err := parseNeedRecord(data)
		if valid := bytes.Equal(data, needRecord[:]); (err == nil) != valid {
			t.Fatalf("parseNeedRecord(%x) = %v, the one valid record is %x", data, err, needRecord)
		}
		if err != nil && !errors.Is(err, ErrBadNeedRecord) {
			t.Fatalf("parseNeedRecord(%x) failed with %v, want ErrBadNeedRecord", data, err)
		}
	})
}
