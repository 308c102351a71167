package rlnc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestSeededBlockRoundTrip: a seeded block is an XNC3 counter record. It
// carries a 4-byte index where XNC1 carries n coefficient bytes, its payload is
// the encode of CounterCoeffs(key, segment, index), and reading it regenerates
// exactly that vector — into the reader's block, reusing its storage, with the
// payload read where it lies.
func TestSeededBlockRoundTrip(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 128}
	seg := randomSegment(t, 5, p, 100)
	const key = 0x0123456789ABCDEF
	f := RecordFormat{Params: p, Counter: true, Key: key}
	data := CounterRecord(seg, key, 77)
	if len(data) != CounterWireSize(p) || CounterWireSize(p) != WireSize(p)-p.BlockCount+4 {
		t.Fatalf("wire size %d, CounterWireSize %d, XNC1 %d", len(data), CounterWireSize(p), WireSize(p))
	}
	var got CodedBlock
	if err := got.ParseView(data, f); err != nil {
		t.Fatal(err)
	}
	index := binary.BigEndian.Uint32(data[wireHeaderLen:])
	want := make([]byte, p.BlockCount)
	CounterCoeffs(want, key, 5, 77)
	if index != 77 || got.SegmentID != 5 || !bytes.Equal(got.Coeffs, want) || !consistentWithSource(seg, &got) {
		t.Fatalf("index %d, segment %d, coefficients % x: not the record that was written", index, got.SegmentID, got.Coeffs)
	}
	coeffs := &got.Coeffs[0]
	next := CounterRecord(seg, key, 78)
	if err := got.ParseView(next, f); err != nil {
		t.Fatal(err)
	}
	if &got.Coeffs[0] != coeffs || &got.Payload[0] != &next[wireHeaderLen+counterIndexLen] {
		t.Fatal("a second read did not reuse the block's storage and view the record's payload")
	}
	// The same index under another key is another vector.
	var other CodedBlock
	if err := other.ParseView(data, RecordFormat{Params: p, Counter: true, Key: key + 1}); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(other.Coeffs, want) {
		t.Fatal("the key does not enter the coefficients")
	}
}

func TestSeededBlocksDecode(t *testing.T) {
	p := Params{BlockCount: 12, BlockSize: 64}
	seg := randomSegment(t, 1, p, 102)
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	var rx CodedBlock
	for index := uint32(0); !dec.Ready(); index++ {
		// Receiver side: wire → regenerate coefficients → decode.
		if err := rx.ParseView(CounterRecord(seg, 103, index), RecordFormat{Params: p, Counter: true, Key: 103}); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.AddBlock(&rx); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("seeded decode differs")
	}
}

func TestSeededBlockCorruption(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 32}
	seg := randomSegment(t, 1, p, 104)
	good := CounterRecord(seg, 105, 3)
	read := func(data []byte, want Params) error {
		return new(CodedBlock).ParseView(data, RecordFormat{Params: want, Counter: true, Key: 105})
	}
	bad := append([]byte(nil), good...)
	bad[0] = 'Z'
	if err := read(bad, p); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic err = %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[wireHeaderLen] ^= 1 // the index
	if err := read(bad, p); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("flipped index err = %v", err)
	}
	if err := read(good[:5], p); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated err = %v", err)
	}
	// A plain coded block is the counter stream's other encoding — a relay's
	// recode — read with its own coefficients; an XNC2 record's magic is
	// rejected.
	plain := NewEncoder(seg, rand.New(rand.NewSource(106))).NextBlock()
	plainWire, err := plain.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var blk CodedBlock
	if err := blk.ParseView(plainWire, RecordFormat{Params: p, Counter: true, Key: 105}); err != nil || !bytes.Equal(blk.Coeffs, plain.Coeffs) {
		t.Fatalf("plain record on a counter stream: %v, coefficients % x, want % x", err, blk.Coeffs, plain.Coeffs)
	}
	unit := &CodedBlock{SegmentID: seg.ID(), Coeffs: make([]byte, p.BlockCount), Payload: seg.Block(2)}
	unit.Coeffs[2] = 1
	if err := read(xorWire(t, unit), p); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("XNC2 magic err = %v", err)
	}
	// A checksummed record of another shape sizes nothing: the key belongs to
	// the session that declared p.
	if err := read(good, Params{BlockCount: 9, BlockSize: 32}); !errors.Is(err, ErrBlockShape) {
		t.Fatalf("shape mismatch err = %v", err)
	}
}

func TestSystematicEncoder(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 64}
	seg := randomSegment(t, 2, p, 108)
	rng := rand.New(rand.NewSource(109))
	se := NewSystematicEncoder(seg, rng)

	if se.SystematicRemaining() != p.BlockCount {
		t.Fatalf("remaining = %d", se.SystematicRemaining())
	}
	// Phase 1: the source blocks verbatim, in order.
	for i := 0; i < p.BlockCount; i++ {
		b, err := se.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Payload, seg.Block(i)) {
			t.Fatalf("systematic block %d is not verbatim", i)
		}
		for c, v := range b.Coeffs {
			want := byte(0)
			if c == i {
				want = 1
			}
			if v != want {
				t.Fatalf("systematic block %d has non-unit coefficients", i)
			}
		}
	}
	if se.SystematicRemaining() != 0 {
		t.Fatal("systematic phase not exhausted")
	}
	// Phase 2: coded blocks.
	b, err := se.NextBlock()
	if err != nil {
		t.Fatal(err)
	}
	unit := 0
	for _, v := range b.Coeffs {
		if v != 0 {
			unit++
		}
	}
	if unit < 2 {
		t.Fatal("coded-phase block looks systematic")
	}
	se.Reset()
	if se.SystematicRemaining() != p.BlockCount {
		t.Fatal("Reset did not restart systematic phase")
	}
}

// TestSystematicWithLossDecodes: drop some verbatim blocks; the coded tail
// repairs them.
func TestSystematicWithLossDecodes(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 64}
	seg := randomSegment(t, 3, p, 110)
	rng := rand.New(rand.NewSource(111))
	se := NewSystematicEncoder(seg, rng)
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	lossRng := rand.New(rand.NewSource(112))
	for !dec.Ready() {
		b, err := se.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if lossRng.Float64() < 0.25 {
			continue
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("systematic-with-loss decode differs")
	}
}

// TestRecoderDropsDependentInput: the basis-pruning recoder keeps only
// innovative blocks.
func TestRecoderDropsDependentInput(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 32}
	seg := randomSegment(t, 1, p, 113)
	rng := rand.New(rand.NewSource(114))
	enc := NewEncoder(seg, rng)
	r, err := NewRecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	b := enc.NextBlock()
	for i := 0; i < 5; i++ {
		if err := r.Add(b.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if r.Rank() != 1 || len(r.payloads) != 1 {
		t.Fatalf("%d rows at rank %d after 5 duplicates", len(r.payloads), r.Rank())
	}
	for i := 0; i < p.BlockCount+4; i++ {
		if err := r.Add(enc.NextBlock()); err != nil {
			t.Fatal(err)
		}
	}
	if r.Rank() != p.BlockCount || len(r.payloads) != p.BlockCount {
		t.Fatalf("%d rows at rank %d, want %d (full rank, pruned)", len(r.payloads), r.Rank(), p.BlockCount)
	}
}

// TestWireFormatGolden pins the exact wire bytes of both block formats so
// the formats cannot change silently — they are compatibility contracts.
func TestWireFormatGolden(t *testing.T) {
	p := Params{BlockCount: 2, BlockSize: 3}
	seg, err := SegmentFromData(0x01020304, p, []byte{0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := NewEncoder(seg, rand.New(rand.NewSource(42))).BlockFor([]byte{0x02, 0x03})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := blk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const wantPlain = "584e433101020304000000020000000302033344995c32efae"
	if got := fmt.Sprintf("%x", wire); got != wantPlain {
		t.Errorf("plain wire bytes changed:\n got %s\nwant %s", got, wantPlain)
	}

	sw := CounterRecord(seg, 7, 0x05060708)
	const wantSeeded = "584e433301020304000000020000000305060708cc9df266048b0d"
	if got := fmt.Sprintf("%x", sw); got != wantSeeded {
		t.Errorf("seeded wire bytes changed:\n got %s\nwant %s", got, wantSeeded)
	}
}
