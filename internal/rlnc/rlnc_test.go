package rlnc

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testParams() Params { return Params{BlockCount: 16, BlockSize: 64} }

func randomSegment(t testing.TB, id uint32, p Params, seed int64) *Segment {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(id, p, data)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

func TestParamsValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"valid", Params{128, 4096}, true},
		{"one", Params{1, 1}, true},
		{"zero n", Params{0, 64}, false},
		{"zero k", Params{16, 0}, false},
		{"negative", Params{-1, 64}, false},
		{"huge n", Params{MaxBlockCount + 1, 64}, false},
		{"huge k", Params{16, MaxBlockSize + 1}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if (err == nil) != tc.ok {
				t.Fatalf("Validate(%v) err = %v, ok expectation %v", tc.p, err, tc.ok)
			}
			if err != nil && !errors.Is(err, ErrInvalidParams) {
				t.Fatalf("error %v does not wrap ErrInvalidParams", err)
			}
		})
	}
}

func TestSegmentFromData(t *testing.T) {
	p := testParams()
	short := []byte{1, 2, 3}
	seg, err := SegmentFromData(7, p, short)
	if err != nil {
		t.Fatal(err)
	}
	if seg.ID() != 7 {
		t.Fatalf("ID = %d", seg.ID())
	}
	if !bytes.Equal(seg.Data()[:3], short) {
		t.Fatal("segment prefix not copied")
	}
	for _, b := range seg.Data()[3:] {
		if b != 0 {
			t.Fatal("padding not zeroed")
		}
	}
	if _, err := SegmentFromData(0, p, make([]byte, p.SegmentSize()+1)); err == nil {
		t.Fatal("oversized data accepted")
	}
	// Mutating the input must not affect the segment.
	short[0] = 0xEE
	if seg.Data()[0] == 0xEE {
		t.Fatal("segment aliases caller data")
	}
}

func TestSegmentBlocksAlias(t *testing.T) {
	p := testParams()
	seg, err := NewSegment(0, p)
	if err != nil {
		t.Fatal(err)
	}
	seg.Block(2)[0] = 0x42
	if seg.Data()[2*p.BlockSize] != 0x42 {
		t.Fatal("Block does not alias Data")
	}
	if len(seg.Blocks()) != p.BlockCount {
		t.Fatal("Blocks length wrong")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, p := range []Params{{1, 8}, {4, 16}, {16, 64}, {64, 256}, {128, 128}} {
		seg := randomSegment(t, 3, p, int64(p.BlockCount))
		rng := rand.New(rand.NewSource(99))
		enc := NewEncoder(seg, rng)
		dec, err := NewDecoder(p)
		if err != nil {
			t.Fatal(err)
		}
		for !dec.Ready() {
			if _, err := dec.AddBlock(enc.NextBlock()); err != nil {
				t.Fatal(err)
			}
		}
		got, err := dec.Segment()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(seg) {
			t.Fatalf("params %v: decoded segment differs", p)
		}
	}
}

func TestDecoderDetectsDependence(t *testing.T) {
	p := testParams()
	seg := randomSegment(t, 0, p, 5)
	rng := rand.New(rand.NewSource(6))
	enc := NewEncoder(seg, rng)
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	b := enc.NextBlock()
	if innov, _ := dec.AddBlock(b); !innov {
		t.Fatal("first block not innovative")
	}
	// The same block again is linearly dependent.
	if innov, err := dec.AddBlock(b.Clone()); err != nil || innov {
		t.Fatalf("duplicate block: innovative=%v err=%v", innov, err)
	}
	// A scalar multiple is dependent too.
	scaled := b.Clone()
	for i := range scaled.Coeffs {
		scaled.Coeffs[i] = mulRef(scaled.Coeffs[i], 0x1D)
	}
	for i := range scaled.Payload {
		scaled.Payload[i] = mulRef(scaled.Payload[i], 0x1D)
	}
	if innov, err := dec.AddBlock(scaled); err != nil || innov {
		t.Fatalf("scaled block: innovative=%v err=%v", innov, err)
	}
	if dec.Dependent() != 2 || dec.Received() != 3 || dec.Rank() != 1 {
		t.Fatalf("stats: dep=%d recv=%d rank=%d", dec.Dependent(), dec.Received(), dec.Rank())
	}
}

// mulRef reimplements GF multiply locally to avoid import cycles in tests.
func mulRef(a, b byte) byte {
	var p uint16
	aa, bb := uint16(a), uint16(b)
	for i := 0; i < 8; i++ {
		if bb&1 != 0 {
			p ^= aa
		}
		bb >>= 1
		aa <<= 1
		if aa&0x100 != 0 {
			aa ^= 0x11B
		}
	}
	return byte(p)
}

func TestDecoderRejectsWrongSegmentAndShape(t *testing.T) {
	p := testParams()
	segA := randomSegment(t, 1, p, 7)
	segB := randomSegment(t, 2, p, 8)
	rng := rand.New(rand.NewSource(9))
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.AddBlock(NewEncoder(segA, rng).NextBlock()); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.AddBlock(NewEncoder(segB, rng).NextBlock()); !errors.Is(err, ErrWrongSegment) {
		t.Fatalf("wrong-segment err = %v", err)
	}
	bad := &CodedBlock{SegmentID: 1, Coeffs: make([]byte, 3), Payload: make([]byte, p.BlockSize)}
	if _, err := dec.AddBlock(bad); err == nil {
		t.Fatal("short coefficient vector accepted")
	}
	if _, err := dec.Segment(); !errors.Is(err, ErrNotReady) {
		t.Fatalf("Segment before ready err = %v", err)
	}
}

func TestDecoderEarlyBlockDelivery(t *testing.T) {
	p := Params{BlockCount: 4, BlockSize: 8}
	seg := randomSegment(t, 0, p, 11)
	// Feed unit-vector "coded" blocks: each is immediately a source block.
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	enc := NewEncoder(seg, rng)
	for i := 0; i < p.BlockCount; i++ {
		coeffs := make([]byte, p.BlockCount)
		coeffs[i] = 1
		b, err := enc.BlockFor(coeffs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		got, ok := dec.Block(i)
		if !ok {
			t.Fatalf("block %d not deliverable after its unit vector arrived", i)
		}
		if !bytes.Equal(got, seg.Block(i)) {
			t.Fatalf("early-delivered block %d differs", i)
		}
	}
	if _, ok := dec.Block(-1); ok {
		t.Fatal("out-of-range Block delivered")
	}
}

func TestRecoderPreservesDecodability(t *testing.T) {
	p := Params{BlockCount: 12, BlockSize: 48}
	seg := randomSegment(t, 9, p, 17)
	rng := rand.New(rand.NewSource(18))
	enc := NewEncoder(seg, rng)

	// Hop 1: relay receives n blocks and recodes.
	relay1, err := NewRecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.BlockCount; i++ {
		if err := relay1.Add(enc.NextBlock()); err != nil {
			t.Fatal(err)
		}
	}
	// Hop 2: second relay receives only recoded blocks.
	relay2, err := NewRecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.BlockCount+2; i++ {
		b, err := relay1.NextBlock(rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := relay2.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	// Sink decodes from hop-2 output only.
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Ready() {
		b, err := relay2.NextBlock(rng)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if dec.Received() > 20*p.BlockCount {
			t.Fatal("recoded stream failed to reach full rank")
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("segment decoded from two recoding hops differs from source")
	}
}

func TestRecoderValidation(t *testing.T) {
	p := testParams()
	r, err := NewRecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NextBlock(rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("empty recoder produced a block")
	}
	seg := randomSegment(t, 1, p, 19)
	rng := rand.New(rand.NewSource(20))
	if err := r.Add(NewEncoder(seg, rng).NextBlock()); err != nil {
		t.Fatal(err)
	}
	other := randomSegment(t, 2, p, 21)
	if err := r.Add(NewEncoder(other, rng).NextBlock()); err == nil {
		t.Fatal("cross-segment block accepted by recoder")
	}
	if r.Rank() != 1 {
		t.Fatalf("Rank = %d", r.Rank())
	}
}

func TestCodedBlockWireRoundTrip(t *testing.T) {
	p := testParams()
	seg := randomSegment(t, 0xDEADBEEF, p, 22)
	rng := rand.New(rand.NewSource(23))
	b := NewEncoder(seg, rng).NextBlock()
	data, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != b.WireSize() {
		t.Fatalf("wire size %d, want %d", len(data), b.WireSize())
	}
	var got CodedBlock
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.SegmentID != b.SegmentID || !bytes.Equal(got.Coeffs, b.Coeffs) || !bytes.Equal(got.Payload, b.Payload) {
		t.Fatal("wire round trip altered the block")
	}
}

func TestCodedBlockWireCorruption(t *testing.T) {
	p := testParams()
	seg := randomSegment(t, 1, p, 24)
	rng := rand.New(rand.NewSource(25))
	b := NewEncoder(seg, rng).NextBlock()
	good, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[0] = 'Y'
		if err := new(CodedBlock).UnmarshalBinary(bad); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[wireHeaderLen+len(b.Coeffs)+3] ^= 0x80
		if err := new(CodedBlock).UnmarshalBinary(bad); !errors.Is(err, ErrBadChecksum) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := new(CodedBlock).UnmarshalBinary(good[:10]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
		if err := new(CodedBlock).UnmarshalBinary(good[:len(good)-1]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("absurd dimensions", func(t *testing.T) {
		bad := append([]byte(nil), good...)
		bad[8], bad[9], bad[10], bad[11] = 0xFF, 0xFF, 0xFF, 0xFF
		if err := new(CodedBlock).UnmarshalBinary(bad); err == nil {
			t.Fatal("absurd n accepted")
		}
	})
}

// TestWireRoundTripProperty fuzzes marshal/unmarshal over random shapes.
func TestWireRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := Params{BlockCount: 1 + rng.Intn(32), BlockSize: 1 + rng.Intn(128)}
		b := &CodedBlock{
			SegmentID: rng.Uint32(),
			Coeffs:    make([]byte, p.BlockCount),
			Payload:   make([]byte, p.BlockSize),
		}
		rng.Read(b.Coeffs)
		rng.Read(b.Payload)
		data, err := b.MarshalBinary()
		if err != nil {
			return false
		}
		var got CodedBlock
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		return got.SegmentID == b.SegmentID &&
			bytes.Equal(got.Coeffs, b.Coeffs) &&
			bytes.Equal(got.Payload, b.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// sparseBlock draws the sparse-coding ablation's next block from enc: each
// coefficient is non-zero with probability d, then uniform on [1, 255], and a
// vector that came out all zero is drawn again — one Float64, and one Intn per
// non-zero coefficient, from enc's random source — and Encoder.BlockFor codes
// it.
func sparseBlock(enc *Encoder, d float64) *CodedBlock {
	coeffs := make([]byte, enc.seg.params.BlockCount)
	for nonZero := false; !nonZero; {
		for i := range coeffs {
			coeffs[i] = 0
			if enc.rng.Float64() < d {
				coeffs[i] = byte(1 + enc.rng.Intn(255))
				nonZero = true
			}
		}
	}
	b, err := enc.BlockFor(coeffs)
	if err != nil {
		panic(err) // the vector is BlockCount long
	}
	return b
}

func TestSparseEncoderStillDecodes(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 32}
	seg := randomSegment(t, 0, p, 26)
	rng := rand.New(rand.NewSource(27))
	enc := NewEncoder(seg, rng)
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Ready() {
		if _, err := dec.AddBlock(sparseBlock(enc, 0.25)); err != nil {
			t.Fatal(err)
		}
		if dec.Received() > 50*p.BlockCount {
			t.Fatal("sparse stream failed to reach full rank")
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("sparse decode differs")
	}
}

func TestEncoderBlockForValidation(t *testing.T) {
	p := testParams()
	seg := randomSegment(t, 0, p, 28)
	enc := NewEncoder(seg, rand.New(rand.NewSource(29)))
	if _, err := enc.BlockFor(make([]byte, p.BlockCount-1)); err == nil {
		t.Fatal("short coefficient vector accepted")
	}
}

func TestSplitReassemble(t *testing.T) {
	p := Params{BlockCount: 4, BlockSize: 16} // 64-byte segments
	for _, length := range []int{0, 1, 63, 64, 65, 200} {
		rng := rand.New(rand.NewSource(int64(length)))
		data := make([]byte, length)
		rng.Read(data)
		obj, err := Split(data, p)
		if err != nil {
			t.Fatal(err)
		}
		back, err := obj.Reassemble()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("length %d: reassembly differs", length)
		}
	}
}

// TestSplitAliasesWholeSegments: every whole segment Split makes is a view of
// the data it is handed, capped at its own end, and a short final segment is a
// zero-padded copy. Nothing past len(data) is reachable through a segment, its
// data or its blocks: appending to each of them leaves sentinel bytes in
// data's spare capacity untouched.
func TestSplitAliasesWholeSegments(t *testing.T) {
	p := Params{BlockCount: 4, BlockSize: 16}
	size := p.SegmentSize()
	const sentinel = 0xA5
	for _, length := range []int{1, size, 3 * size, 3*size - 5} {
		buf := make([]byte, length+size)
		rand.New(rand.NewSource(int64(length))).Read(buf[:length])
		for i := length; i < len(buf); i++ {
			buf[i] = sentinel
		}
		data := buf[:length]
		obj, err := Split(data, p)
		if err != nil {
			t.Fatal(err)
		}
		var grown [][]byte
		for i, seg := range obj.Segments {
			lo, got := i*size, seg.Data()
			if len(got) != size || cap(got) != size {
				t.Fatalf("length %d: segment %d is %d bytes of capacity %d, want %d", length, i, len(got), cap(got), size)
			}
			if whole := lo+size <= length; whole != (&got[0] == &data[lo]) {
				t.Fatalf("length %d: segment %d aliases data %v, want %v", length, i, !whole, whole)
			}
			tail := min(size, length-lo)
			if !bytes.Equal(got[:tail], data[lo:lo+tail]) || !bytes.Equal(got[tail:], make([]byte, size-tail)) {
				t.Fatalf("length %d: segment %d is not data[%d:] zero-padded", length, i, lo)
			}
			grown = append(grown, append(got, 0xFF))
			for _, b := range seg.Blocks() {
				grown = append(grown, append(b, 0xFF))
			}
		}
		for i, b := range buf[length:] {
			if b != sentinel {
				t.Fatalf("length %d: data[%d] past the end was written (%#x) through %d appends", length, length+i, b, len(grown))
			}
		}
	}
}

func TestReassembleMissingSegment(t *testing.T) {
	p := Params{BlockCount: 2, BlockSize: 8}
	data := make([]byte, 40)
	obj, err := Split(data, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReassembleSegments(obj.Segments[1:], obj.Length, p); !errors.Is(err, ErrMissingSegment) {
		t.Fatalf("err = %v", err)
	}
}

func TestSplitCodeDecodeEndToEnd(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 32}
	payload := make([]byte, 3*p.SegmentSize()-17)
	rand.New(rand.NewSource(30)).Read(payload)
	obj, err := Split(payload, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	decoded := make([]*Segment, 0, len(obj.Segments))
	for _, seg := range obj.Segments {
		enc := NewEncoder(seg, rng)
		dec, err := NewDecoder(p)
		if err != nil {
			t.Fatal(err)
		}
		for !dec.Ready() {
			if _, err := dec.AddBlock(enc.NextBlock()); err != nil {
				t.Fatal(err)
			}
		}
		s, err := dec.Segment()
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, s)
	}
	back, err := ReassembleSegments(decoded, len(payload), p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, payload) {
		t.Fatal("end-to-end object differs")
	}
}

func TestParallelEncoderModesMatchSerial(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 100} // k not divisible by workers
	seg := randomSegment(t, 0, p, 32)
	const count, seed = 13, 777

	serialRng := rand.New(rand.NewSource(seed))
	serialEnc := NewEncoder(seg, serialRng)
	want := make([]*CodedBlock, count)
	for i := range want {
		want[i] = serialEnc.NextBlock()
	}

	for _, mode := range []EncodeMode{PartitionedBlock, FullBlock} {
		for _, workers := range []int{1, 3, 8} {
			pe, err := NewParallelEncoder(workers, mode)
			if err != nil {
				t.Fatal(err)
			}
			got, err := pe.Encode(seg, count, seed)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want {
				if !bytes.Equal(got[i].Coeffs, want[i].Coeffs) || !bytes.Equal(got[i].Payload, want[i].Payload) {
					t.Fatalf("mode %v workers %d: block %d differs from serial", mode, workers, i)
				}
			}
		}
	}
}

func TestParallelEncoderValidation(t *testing.T) {
	if _, err := NewParallelEncoder(0, FullBlock); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := NewParallelEncoder(2, EncodeMode(99)); err == nil {
		t.Fatal("bogus mode accepted")
	}
	pe, err := NewParallelEncoder(2, FullBlock)
	if err != nil {
		t.Fatal(err)
	}
	seg := randomSegment(t, 0, testParams(), 33)
	if _, err := pe.Encode(seg, 0, 1); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestDecodeSegmentsParallel(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 64}
	const segCount = 6
	rng := rand.New(rand.NewSource(34))
	segs := make([]*Segment, segCount)
	blocks := make([][]*CodedBlock, segCount)
	for i := range segs {
		segs[i] = randomSegment(t, uint32(i), p, int64(40+i))
		enc := NewEncoder(segs[i], rng)
		for j := 0; j < p.BlockCount+2; j++ {
			blocks[i] = append(blocks[i], enc.NextBlock())
		}
	}
	for _, workers := range []int{1, 4, 16} {
		got, err := DecodeSegmentsParallel(context.Background(), p, blocks, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range segs {
			if !got[i].Equal(segs[i]) {
				t.Fatalf("workers %d: segment %d differs", workers, i)
			}
		}
	}
	if _, err := DecodeSegmentsParallel(context.Background(), p, blocks, 0); !errors.Is(err, ErrWorkerCount) {
		t.Fatalf("zero workers: err = %v, want ErrWorkerCount", err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := DecodeSegmentsParallel(cancelled, p, blocks, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}

func TestEncodeModeString(t *testing.T) {
	if PartitionedBlock.String() == "" || FullBlock.String() == "" || EncodeMode(42).String() == "" {
		t.Fatal("EncodeMode String incomplete")
	}
}

func BenchmarkHostEncode(b *testing.B) {
	for _, p := range []Params{{128, 4096}, {256, 4096}, {512, 4096}} {
		seg := randomSegment(b, 0, p, 1)
		rng := rand.New(rand.NewSource(2))
		enc := NewEncoder(seg, rng)
		coeffs := enc.NextCoeffs()
		dst := make([]byte, p.BlockSize)
		b.Run(p.String(), func(b *testing.B) {
			b.SetBytes(int64(p.BlockSize))
			for i := 0; i < b.N; i++ {
				EncodeInto(dst, seg, coeffs)
			}
		})
	}
}

func BenchmarkHostDecodeProgressive(b *testing.B) {
	p := Params{BlockCount: 128, BlockSize: 4096}
	seg := randomSegment(b, 0, p, 3)
	rng := rand.New(rand.NewSource(4))
	enc := NewEncoder(seg, rng)
	blocks := make([]*CodedBlock, p.BlockCount)
	for i := range blocks {
		blocks[i] = enc.NextBlock()
	}
	b.SetBytes(int64(p.SegmentSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := NewDecoder(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, blk := range blocks {
			if _, err := dec.AddBlock(blk); err != nil {
				b.Fatal(err)
			}
		}
		if !dec.Ready() {
			b.Fatal("not ready")
		}
	}
}

func BenchmarkHostDecodeBatch(b *testing.B) {
	p := Params{BlockCount: 128, BlockSize: 4096}
	seg := randomSegment(b, 0, p, 5)
	rng := rand.New(rand.NewSource(6))
	enc := NewEncoder(seg, rng)
	blocks := make([]*CodedBlock, p.BlockCount)
	for i := range blocks {
		blocks[i] = enc.NextBlock()
	}
	b.SetBytes(int64(p.SegmentSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTwoStage(p, blocks); err != nil {
			b.Fatal(err)
		}
	}
}
