package rlnc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSeededBlockRoundTrip(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 128}
	seg := randomSegment(t, 5, p, 100)
	rng := rand.New(rand.NewSource(101))
	enc := NewEncoder(seg, rng)

	sb, err := enc.NextSeededBlock()
	if err != nil {
		t.Fatal(err)
	}
	// The expanded block must be the true combination for its seed.
	plain := sb.Expand()
	want, err := enc.BlockFor(plain.Coeffs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Payload, want.Payload) {
		t.Fatal("seeded payload does not match its coefficient vector")
	}

	// Wire round trip.
	data, err := sb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != sb.WireSize() {
		t.Fatalf("wire size %d != %d", len(data), sb.WireSize())
	}
	var got SeededBlock
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.Seed != sb.Seed || got.SegmentID != sb.SegmentID || !bytes.Equal(got.Payload, sb.Payload) {
		t.Fatal("seeded wire round trip altered the block")
	}

	// Header is 8 bytes instead of n.
	seeded, plainOverhead := sb.HeaderOverhead()
	if seeded != 8 || plainOverhead != p.BlockCount {
		t.Fatalf("overhead = (%d, %d)", seeded, plainOverhead)
	}
}

func TestSeededBlocksDecode(t *testing.T) {
	p := Params{BlockCount: 12, BlockSize: 64}
	seg := randomSegment(t, 1, p, 102)
	rng := rand.New(rand.NewSource(103))
	enc := NewEncoder(seg, rng)
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Ready() {
		sb, err := enc.NextSeededBlock()
		if err != nil {
			t.Fatal(err)
		}
		// Receiver side: wire → regenerate coefficients → decode.
		data, err := sb.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var rx SeededBlock
		if err := rx.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.AddBlock(rx.Expand()); err != nil {
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
	enc := NewEncoder(seg, rand.New(rand.NewSource(105)))
	sb, err := enc.NextSeededBlock()
	if err != nil {
		t.Fatal(err)
	}
	good, err := sb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[0] = 'Z'
	if err := new(SeededBlock).UnmarshalBinary(bad); !errors.Is(err, ErrNotSeeded) {
		t.Fatalf("bad magic err = %v", err)
	}
	bad = append([]byte(nil), good...)
	bad[seededHeaderLen] ^= 1
	if err := new(SeededBlock).UnmarshalBinary(bad); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("flipped byte err = %v", err)
	}
	if err := new(SeededBlock).UnmarshalBinary(good[:5]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated err = %v", err)
	}
	// A plain coded block's magic must be rejected too.
	plainWire, err := sb.Expand().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := new(SeededBlock).UnmarshalBinary(plainWire); !errors.Is(err, ErrNotSeeded) {
		t.Fatalf("plain magic err = %v", err)
	}
}

func TestSeededRequiresDense(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 32}
	seg := randomSegment(t, 1, p, 106)
	enc := NewEncoder(seg, rand.New(rand.NewSource(107)), WithDensity(0.5))
	if _, err := enc.NextSeededBlock(); err == nil {
		t.Fatal("sparse encoder produced a seeded block")
	}
}

func TestCoeffsFromSeedDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		a := CoeffsFromSeed(seed, 32)
		b := CoeffsFromSeed(seed, 32)
		if !bytes.Equal(a, b) {
			return false
		}
		for _, c := range a {
			if c == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
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
	if r.Count() != 1 || r.Rank() != 1 {
		t.Fatalf("count=%d rank=%d after 5 duplicates", r.Count(), r.Rank())
	}
	for i := 0; i < p.BlockCount+4; i++ {
		if err := r.Add(enc.NextBlock()); err != nil {
			t.Fatal(err)
		}
	}
	if r.Rank() != p.BlockCount || r.Count() != p.BlockCount {
		t.Fatalf("count=%d rank=%d, want %d (full rank, pruned)", r.Count(), r.Rank(), p.BlockCount)
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

	sb := &SeededBlock{SegmentID: 0x01020304, BlockCount: 2, Seed: 7, Payload: []byte{1, 2, 3}}
	sw, err := sb.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const wantSeeded = "584e533101020304000000020000000300000000000000070102031b892138"
	if got := fmt.Sprintf("%x", sw); got != wantSeeded {
		t.Errorf("seeded wire bytes changed:\n got %s\nwant %s", got, wantSeeded)
	}
}
