package rlnc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// Native fuzz targets for the wire formats. `go test` exercises the seed
// corpus; `go test -fuzz=FuzzCodedBlockUnmarshal ./internal/rlnc` explores
// further.

func seedWire(f *testing.F) {
	f.Helper()
	p := Params{BlockCount: 8, BlockSize: 64}
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(1, p, data)
	if err != nil {
		f.Fatal(err)
	}
	wire, err := NewEncoder(seg, rng).NextBlock().MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add([]byte{})
	f.Add([]byte("XNC1"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
}

func FuzzCodedBlockUnmarshal(f *testing.F) {
	seedWire(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var blk CodedBlock
		if err := blk.UnmarshalBinary(data); err != nil {
			return
		}
		// Accepted input must re-marshal to identical bytes.
		out, err := blk.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted block fails to marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("unmarshal/marshal not idempotent")
		}
	})
}

// FuzzEncodeBatchVsSingle drives the tiled batch kernel against the
// single-block reference over fuzzer-chosen shapes: any divergence between
// EncodeBatchInto and the per-row Σ cᵢ·bᵢ loop is a kernel bug.
func FuzzEncodeBatchVsSingle(f *testing.F) {
	f.Add(int64(1), 4, 64, 3)
	f.Add(int64(2), 1, 1, 1)
	f.Add(int64(3), 7, 257, 5)
	f.Add(int64(4), 16, 4099, 17)
	f.Fuzz(func(t *testing.T, seed int64, n, k, batch int) {
		n = 1 + abs(n)%32
		k = 1 + abs(k)%600
		batch = 1 + abs(batch)%(encodeBatchGroup+3)
		p := Params{BlockCount: n, BlockSize: k}
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, p.SegmentSize())
		rng.Read(data)
		seg, err := SegmentFromData(1, p, data)
		if err != nil {
			t.Fatal(err)
		}
		coeffs := make([][]byte, batch)
		dsts := make([][]byte, batch)
		for b := range coeffs {
			coeffs[b] = make([]byte, n)
			rng.Read(coeffs[b])
			if b%2 == 0 {
				coeffs[b][rng.Intn(n)] = 0
			}
			dsts[b] = make([]byte, k)
		}
		if err := EncodeBatchInto(dsts, seg, coeffs); err != nil {
			t.Fatal(err)
		}
		want := make([]byte, k)
		for b := range coeffs {
			encodeSingleRef(want, seg, coeffs[b])
			if !bytes.Equal(dsts[b], want) {
				t.Fatalf("n=%d k=%d batch=%d: row %d diverges from single-block encode", n, k, batch, b)
			}
		}
	})
}

func abs(v int) int {
	if v < 0 {
		if v == -v { // math.MinInt
			return 0
		}
		return -v
	}
	return v
}

// FuzzXorBlockUnmarshal explores the GF(2) wire reading: an accepted XNC2
// record must expand to a binary block and re-lay byte-identically through
// narrowing — any mask byte with trailing bits, bad length, or checksum
// mismatch must be rejected, never mis-parsed.
func FuzzXorBlockUnmarshal(f *testing.F) {
	p := Params{BlockCount: 12, BlockSize: 48} // ragged mask: 4 trailing bits
	rng := rand.New(rand.NewSource(2))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(3, p, data)
	if err != nil {
		f.Fatal(err)
	}
	se := NewSystematicEncoder(seg, rng)
	for i := 0; i < 3; i++ {
		f.Add(xorWire(f, se.Block()))
	}
	f.Add([]byte{})
	f.Add([]byte("XNC2"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var blk CodedBlock
		if !hasMagic(data, xorWireMagic) || blk.UnmarshalRecord(data) != nil {
			return
		}
		if !blk.IsBinary() {
			t.Fatal("accepted XNC2 record expanded to non-binary coefficients")
		}
		if !bytes.Equal(xorWire(t, &blk), data) {
			t.Fatal("xor unmarshal/narrow not idempotent")
		}
	})
}

// relay lays b out again as a record of format f through the one writer —
// XNC3 with the given index when counter is set, else XNC1, narrowed to XNC2
// when xor is set — and seals it. It reports false if narrowing refuses.
func relay(b *CodedBlock, f RecordFormat, index uint32, counter, xor bool) ([]byte, bool) {
	p := f.Params
	if counter {
		out := make([]byte, CounterWireSize(p))
		copy(PutCounterHeader(out, b.SegmentID, index, p), b.Payload)
		SealWire(out)
		return out, true
	}
	out := make([]byte, WireSize(p))
	row := PutWireHeader(out, b.SegmentID, p)
	copy(row[copy(row, b.Coeffs):], b.Payload)
	if xor {
		var ok bool
		if out, ok = NarrowWire(out, p); !ok {
			return nil, false
		}
	}
	SealWire(out)
	return out, true
}

// FuzzRecordDispatch drives the one record reader, ParseView, with every
// encoding's seeds under both formats a stream can have — XNC1/XNC2 at the
// shape the header declares, and XNC3/XNC1 under a fixed key, the fetcher's
// read of a counter session, where a relay's recodes travel as XNC1. Whatever
// it accepts re-lays byte-identically through the one writer (XNC2 by
// narrowing), with the payload read where it lies — so an XNC1 record's
// coefficients were copied, on either stream — and an accepted counter
// record's regenerated vector is the key's, with no zero in it. Neither
// stream admits the other's second encoding: XNC2 on a counter stream, XNC3
// on any other.
func FuzzRecordDispatch(f *testing.F) {
	const key = 0xC0FFEE
	seedWire(f)
	p := Params{BlockCount: 8, BlockSize: 64}
	rng := rand.New(rand.NewSource(4))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(1, p, data)
	if err != nil {
		f.Fatal(err)
	}
	se := NewSystematicEncoder(seg, rng)
	f.Add(xorWire(f, se.Block()))
	f.Add([]byte("XNC2"))
	f.Add(CounterRecord(seg, key, 9))
	f.Add([]byte("XNC3"))
	// A relay's recode of counter records: XNC1, with its coefficients.
	rec, err := NewRecoder(p, WithSeed(5))
	if err != nil {
		f.Fatal(err)
	}
	for index := range uint32(p.BlockCount) {
		var b CodedBlock
		if err := b.ParseView(CounterRecord(seg, key, index), RecordFormat{Params: p, Counter: true, Key: key}); err != nil {
			f.Fatal(err)
		}
		if err := rec.Add(&b); err != nil {
			f.Fatal(err)
		}
	}
	recode, err := rec.Emit()
	if err != nil {
		f.Fatal(err)
	}
	wire, err := recode.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Fuzz(func(t *testing.T, data []byte) {
		var format RecordFormat
		if len(data) >= wireHeaderLen {
			format.Params = headerParams(data)
		}
		for _, counter := range []bool{false, true} {
			format.Counter, format.Key = counter, key
			var blk CodedBlock
			if blk.ParseView(data, format) != nil {
				continue
			}
			if &blk.Payload[len(blk.Payload)-1] != &data[len(data)-wireTrailerLen-1] {
				t.Fatal("ParseView's payload is not a view of the record")
			}
			indexed, xor := hasMagic(data, counterWireMagic), hasMagic(data, xorWireMagic)
			if (counter && xor) || (!counter && indexed) {
				t.Fatalf("counter=%v: accepted a %q record", counter, data[:4])
			}
			var index uint32
			if indexed {
				index = binary.BigEndian.Uint32(data[wireHeaderLen:])
				want := make([]byte, format.Params.BlockCount)
				CounterCoeffs(want, key, blk.SegmentID, index)
				if !bytes.Equal(blk.Coeffs, want) || bytes.IndexByte(blk.Coeffs, 0) >= 0 {
					t.Fatalf("index %d regenerated % x", index, blk.Coeffs)
				}
			}
			out, ok := relay(&blk, format, index, indexed, xor)
			if !ok {
				t.Fatal("accepted XNC2 record expanded to non-binary coefficients")
			}
			if !bytes.Equal(out, data) {
				t.Fatalf("counter=%v: an accepted record does not re-lay to its bytes", counter)
			}
		}
	})
}
