package rlnc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"extremenc/internal/gf256"
)

// consistentWithSource checks the fundamental RLNC invariant: a block's
// payload is exactly the combination its coefficient vector claims,
// x = Σ cᵢ·bᵢ over the true source blocks — no matter how many encoding or
// recoding hops produced it.
func consistentWithSource(seg *Segment, b *CodedBlock) bool {
	k := seg.Params().BlockSize
	want := make([]byte, k)
	for i, c := range b.Coeffs {
		if c != 0 {
			gf256.MulAddSlice(want, seg.Block(i), c)
		}
	}
	return bytes.Equal(want, b.Payload)
}

// TestRecodingPreservesCombinationInvariant: blocks surviving arbitrary
// recoding chains still satisfy x = C·b against the original source.
func TestRecodingPreservesCombinationInvariant(t *testing.T) {
	f := func(seed int64, hops8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{BlockCount: 4 + rng.Intn(12), BlockSize: 16 + rng.Intn(64)}
		data := make([]byte, p.SegmentSize())
		rng.Read(data)
		seg, err := SegmentFromData(9, p, data)
		if err != nil {
			return false
		}
		enc := NewEncoder(seg, rng)

		// Chain of 1–4 recoding hops, each fed from the previous.
		hops := 1 + int(hops8)%4
		prev := make([]*CodedBlock, p.BlockCount+1)
		for i := range prev {
			prev[i] = enc.NextBlock()
		}
		for h := 0; h < hops; h++ {
			rec, err := NewRecoder(p)
			if err != nil {
				return false
			}
			for _, b := range prev {
				if err := rec.Add(b); err != nil {
					return false
				}
			}
			next := make([]*CodedBlock, len(prev))
			for i := range next {
				if next[i], err = rec.NextBlock(rng); err != nil {
					return false
				}
			}
			prev = next
		}
		for _, b := range prev {
			if !consistentWithSource(seg, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDecodeArrivalOrderInvariance: any permutation of a spanning block set
// recovers the same segment.
func TestDecodeArrivalOrderInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{BlockCount: 4 + rng.Intn(10), BlockSize: 8 + rng.Intn(64)}
		data := make([]byte, p.SegmentSize())
		rng.Read(data)
		seg, err := SegmentFromData(2, p, data)
		if err != nil {
			return false
		}
		enc := NewEncoder(seg, rng)
		blocks := make([]*CodedBlock, p.BlockCount+2)
		for i := range blocks {
			blocks[i] = enc.NextBlock()
		}
		decodeAll := func(order []int) *Segment {
			dec, err := NewDecoder(p)
			if err != nil {
				return nil
			}
			for _, idx := range order {
				if _, err := dec.AddBlock(blocks[idx]); err != nil {
					return nil
				}
			}
			s, err := dec.Segment()
			if err != nil {
				return nil
			}
			return s
		}
		forward := make([]int, len(blocks))
		for i := range forward {
			forward[i] = i
		}
		shuffled := append([]int(nil), forward...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		a, b := decodeAll(forward), decodeAll(shuffled)
		return a != nil && b != nil && a.Equal(b) && a.Equal(seg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDecoderRankMonotone: rank never decreases and Ready ⇔ rank = n.
func TestDecoderRankMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{BlockCount: 3 + rng.Intn(8), BlockSize: 8 + rng.Intn(32)}
		data := make([]byte, p.SegmentSize())
		rng.Read(data)
		seg, err := SegmentFromData(1, p, data)
		if err != nil {
			return false
		}
		enc := NewEncoder(seg, rng, WithDensity(0.4))
		dec, err := NewDecoder(p)
		if err != nil {
			return false
		}
		prev := 0
		for i := 0; i < 4*p.BlockCount; i++ {
			if _, err := dec.AddBlock(enc.NextBlock()); err != nil {
				return false
			}
			r := dec.Rank()
			if r < prev || r > p.BlockCount {
				return false
			}
			if dec.Ready() != (r == p.BlockCount) {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestMixedBlockKindsDecode: systematic, dense coded, sparse coded, counter
// and recoded blocks interoperate in a single decoder.
func TestMixedBlockKindsDecode(t *testing.T) {
	p := Params{BlockCount: 12, BlockSize: 48}
	rng := rand.New(rand.NewSource(130))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(4, p, data)
	if err != nil {
		t.Fatal(err)
	}

	se := NewSystematicEncoder(seg, rng)
	dense := NewEncoder(seg, rng)
	sparse := NewEncoder(seg, rng, WithDensity(0.3))
	rec, err := NewRecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := rec.Add(dense.NextBlock()); err != nil {
			t.Fatal(err)
		}
	}

	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}

	// Prelude: a run of purely binary blocks (systematic + GF(2) repair) must
	// keep the decoder on its XOR-only fast path — the fast path and the
	// general machinery must agree block for block before dense kinds enter.
	if !dec.xorOnly {
		t.Fatal("fresh decoder not on the XOR fast path")
	}
	pre := NewSystematicEncoder(seg, rand.New(rand.NewSource(131)), WithXorRepair(4), WithDenseTail(0))
	for i := 0; i < p.BlockCount/2+4; i++ {
		b, err := pre.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if !b.IsBinary() {
			t.Fatalf("prelude block %d is not GF(2)", i)
		}
		if !consistentWithSource(seg, b) {
			t.Fatalf("prelude block %d inconsistent", i)
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if !dec.xorOnly {
			t.Fatalf("binary block %d knocked the decoder off the fast path", i)
		}
	}

	var index uint32
	sources := []func() (*CodedBlock, error){
		se.NextBlock,
		func() (*CodedBlock, error) { return dense.NextBlock(), nil },
		func() (*CodedBlock, error) { return sparse.NextBlock(), nil },
		func() (*CodedBlock, error) {
			var b CodedBlock
			index++
			err := b.ParseView(CounterRecord(seg, 132, index), RecordFormat{Params: p, Counter: true, Key: 132})
			return &b, err
		},
		func() (*CodedBlock, error) { return rec.NextBlock(rng) },
	}
	i := 0
	for !dec.Ready() {
		b, err := sources[i%len(sources)]()
		if err != nil {
			t.Fatal(err)
		}
		i++
		if !consistentWithSource(seg, b) {
			t.Fatalf("source %d emitted an inconsistent block", (i-1)%len(sources))
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if i > 40*p.BlockCount {
			t.Fatal("mixed stream failed to reach full rank")
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("mixed-kind decode differs")
	}
}

// TestWireFuzzNeverPanics: random mutations of valid wire bytes either
// error cleanly or round-trip to a valid block.
func TestWireFuzzNeverPanics(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 32}
	rng := rand.New(rand.NewSource(131))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(1, p, data)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(seg, rng)
	wire, err := enc.NextBlock().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3000; trial++ {
		mutated := append([]byte(nil), wire...)
		for flips := rng.Intn(4) + 1; flips > 0; flips-- {
			mutated[rng.Intn(len(mutated))] ^= byte(1 + rng.Intn(255))
		}
		if rng.Intn(4) == 0 {
			mutated = mutated[:rng.Intn(len(mutated))]
		}
		var blk CodedBlock
		if err := blk.UnmarshalBinary(mutated); err == nil {
			// Accepted: must be internally consistent.
			if blk.Validate(blk.Params()) != nil {
				t.Fatal("unmarshaled block fails its own validation")
			}
		}
	}
}

// TestGenerationSizesProperty: Split always covers the payload and pads
// only the tail segment.
func TestGenerationSizesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{BlockCount: 1 + rng.Intn(8), BlockSize: 1 + rng.Intn(64)}
		length := rng.Intn(5 * p.SegmentSize())
		data := make([]byte, length)
		rng.Read(data)
		obj, err := Split(data, p)
		if err != nil {
			return false
		}
		want := (length + p.SegmentSize() - 1) / p.SegmentSize()
		if want == 0 {
			want = 1
		}
		if len(obj.Segments) != want {
			return false
		}
		back, err := obj.Reassemble()
		if err != nil {
			return false
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
