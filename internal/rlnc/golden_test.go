package rlnc

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestCodecBytesGolden pins the codec's bytes to a digest computed before the
// SIMD kernels existed: coded records on the wire, batch-encoded payloads,
// recoded records, and the decoder's MarshalBinary blob after a dense and a
// systematic transfer. The gf256 kernel rung must never change a byte, so the
// same digest has to come out of the AVX2 build, the purego build and any
// other architecture — CI runs this package both ways.
func TestCodecBytesGolden(t *testing.T) {
	const want = "505e090208e8c3ecff7c839d97817ce2ac7cebc22c1247f6b6e61e1a2213bc5f"
	p := Params{BlockCount: 24, BlockSize: 1000} // rows of n+k = 1024 and payload tails of 8
	data := make([]byte, p.SegmentSize())
	rand.New(rand.NewSource(70)).Read(data)
	seg, err := SegmentFromData(3, p, data)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	absorb := func(dec *Decoder, b *CodedBlock) {
		marshal := b.MarshalBinary
		if b.IsBinary() {
			marshal = b.MarshalBinaryXor
		}
		wire, err := marshal()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(wire)
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	finish := func(dec *Decoder) {
		blob, err := dec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(blob)
		got, err := dec.Segment()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(got.Data())
	}

	// Dense: encoder → recoder → decoder, every record through the wire form.
	enc := NewEncoder(seg, rand.New(rand.NewSource(71)))
	rec, err := NewRecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	rrng := rand.New(rand.NewSource(72))
	for !dec.Ready() {
		b := enc.NextBlock()
		if err := rec.Add(b); err != nil {
			t.Fatal(err)
		}
		out, err := rec.NextBlock(rrng)
		if err != nil {
			t.Fatal(err)
		}
		absorb(dec, out)
	}
	finish(dec)

	// Batch encode: the tiled kernel path.
	crng := rand.New(rand.NewSource(73))
	coeffs := make([][]byte, 5)
	dsts := make([][]byte, 5)
	for i := range coeffs {
		coeffs[i] = make([]byte, p.BlockCount)
		crng.Read(coeffs[i])
		dsts[i] = make([]byte, p.BlockSize)
	}
	if err := EncodeBatchInto(dsts, seg, coeffs); err != nil {
		t.Fatal(err)
	}
	for _, d := range dsts {
		h.Write(d)
	}

	// Systematic with losses: XOR fast path, then the dense tail.
	se := NewSystematicEncoder(seg, rand.New(rand.NewSource(74)))
	dec, err = NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; !dec.Ready(); i++ {
		b, err := se.NextBlock()
		if err != nil {
			t.Fatal(err)
		}
		if i%5 == 2 {
			continue // lost on the way
		}
		absorb(dec, b)
	}
	finish(dec)

	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("codec bytes digest = %s, want %s", got, want)
	}
}
