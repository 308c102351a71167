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

// FuzzXorBlockUnmarshal explores the GF(2) wire decoder: accepted input must
// expand to a binary block and re-marshal byte-identically — any mask byte
// with trailing bits, bad length, or checksum mismatch must be rejected, never
// mis-parsed.
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
		wire, err := se.Block().MarshalBinaryXor()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add([]byte("XNC2"))
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		var blk CodedBlock
		if err := blk.UnmarshalBinaryXor(data); err != nil {
			return
		}
		if !blk.IsBinary() {
			t.Fatal("accepted XNC2 record expanded to non-binary coefficients")
		}
		out, err := blk.MarshalBinaryXor()
		if err != nil {
			t.Fatalf("accepted xor block fails to marshal: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("xor unmarshal/marshal not idempotent")
		}
	})
}

// checkView holds ParseView to the copying readers on data, read as a record
// of the shape its header declares, under key if it is an XNC3 record: it
// accepts exactly what they accept, yields the same block, and its payload is
// the record's own bytes.
func checkView(t *testing.T, data []byte, key uint64) {
	var f RecordFormat
	if len(data) >= wireHeaderLen {
		f.Params = Params{BlockCount: int(binary.BigEndian.Uint32(data[8:])), BlockSize: int(binary.BigEndian.Uint32(data[12:]))}
		f.Counter, f.Key = string(data[:4]) == counterWireMagic, key
	}
	var view, copied CodedBlock
	verr := view.ParseView(data, f)
	var cerr error
	if f.Counter {
		_, cerr = copied.UnmarshalCounter(data, key, f.Params)
	} else {
		cerr = copied.UnmarshalRecord(data)
	}
	if (verr == nil) != (cerr == nil) {
		t.Fatalf("ParseView: %v, the copying reader: %v", verr, cerr)
	}
	if verr != nil {
		return
	}
	if view.SegmentID != copied.SegmentID || !bytes.Equal(view.Coeffs, copied.Coeffs) || !bytes.Equal(view.Payload, copied.Payload) {
		t.Fatal("ParseView and the copying reader parse different blocks")
	}
	if &view.Payload[len(view.Payload)-1] != &data[len(data)-wireTrailerLen-1] {
		t.Fatal("ParseView's payload is not a view of the record")
	}
}

// FuzzRecordDispatch drives every record reader with every encoding's seeds:
// UnmarshalRecord for XNC1/XNC2, and UnmarshalCounter under a fixed key for
// XNC3 — the fetcher's dispatch on a counter session. Whatever a reader
// accepts must re-marshal, under the matching encoding, to the input bytes,
// and an accepted counter record's regenerated vector is the key's, with no
// zero in it. ParseView, the fetcher's in-place reader, must agree with them
// on every input (checkView).
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
	wire, err := se.Block().MarshalBinaryXor()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire)
	f.Add([]byte("XNC2"))
	f.Add(CounterRecord(seg, key, 9))
	f.Add([]byte("XNC3"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkView(t, data, key)
		var blk CodedBlock
		if len(data) >= wireHeaderLen && string(data[:4]) == counterWireMagic {
			p := Params{BlockCount: int(binary.BigEndian.Uint32(data[8:])), BlockSize: int(binary.BigEndian.Uint32(data[12:]))}
			index, err := blk.UnmarshalCounter(data, key, p)
			if err != nil {
				return
			}
			want := make([]byte, p.BlockCount)
			CounterCoeffs(want, key, blk.SegmentID, index)
			if !bytes.Equal(blk.Coeffs, want) || bytes.IndexByte(blk.Coeffs, 0) >= 0 {
				t.Fatalf("index %d regenerated % x", index, blk.Coeffs)
			}
			out := make([]byte, CounterWireSize(p))
			copy(PutCounterHeader(out, blk.SegmentID, index, p), blk.Payload)
			SealWire(out)
			if !bytes.Equal(out, data) {
				t.Fatal("counter unmarshal/marshal not idempotent")
			}
			return
		}
		if err := blk.UnmarshalRecord(data); err != nil {
			return
		}
		var out []byte
		var merr error
		if len(data) >= 4 && string(data[:4]) == xorWireMagic {
			out, merr = blk.MarshalBinaryXor()
		} else {
			out, merr = blk.MarshalBinary()
		}
		if merr != nil {
			t.Fatalf("accepted record fails to marshal: %v", merr)
		}
		if !bytes.Equal(out, data) {
			t.Fatal("record dispatch unmarshal/marshal not idempotent")
		}
	})
}
