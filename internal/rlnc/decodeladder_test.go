package rlnc

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"extremenc/internal/gf256"
)

// Differential coverage for the two-stage Decoder against refDecoder, the
// progressive [C | x] Gauss–Jordan decoder it replaced: for any arrival order
// — shuffled, duplicated, with dependent combinations injected, sparse, or
// handed over from the GF(2) path at any rank — both must give the same
// verdict per arrival, the same rank sequence, byte-identical state blobs at
// every rank and byte-identical segments, across degenerate and paper-sized
// shapes.

// dependentMix returns a coded block that is a random GF combination of two
// already-sent blocks — linearly dependent by construction.
func dependentMix(rng *rand.Rand, a, b *CodedBlock) *CodedBlock {
	fa, fb := byte(1+rng.Intn(255)), byte(rng.Intn(256))
	out := &CodedBlock{
		SegmentID: a.SegmentID,
		Coeffs:    make([]byte, len(a.Coeffs)),
		Payload:   make([]byte, len(a.Payload)),
	}
	gf256.MulAddSlice(out.Coeffs, a.Coeffs, fa)
	gf256.MulAddSlice(out.Payload, a.Payload, fa)
	gf256.MulAddSlice(out.Coeffs, b.Coeffs, fb)
	gf256.MulAddSlice(out.Payload, b.Payload, fb)
	return out
}

// ladderArrivals builds a shuffled arrival stream for one segment: n+extra
// encoder blocks plus injected dependent combinations.
func ladderArrivals(rng *rand.Rand, seg *Segment, extra, dependents int) []*CodedBlock {
	enc := NewEncoder(seg, rng)
	n := seg.Params().BlockCount
	blocks := make([]*CodedBlock, 0, n+extra+dependents)
	for i := 0; i < n+extra; i++ {
		blocks = append(blocks, enc.NextBlock())
	}
	for i := 0; i < dependents; i++ {
		a := blocks[rng.Intn(len(blocks))]
		b := blocks[rng.Intn(len(blocks))]
		blocks = append(blocks, dependentMix(rng, a, b))
	}
	rng.Shuffle(len(blocks), func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
	return blocks
}

// sparseArrivals draws blocks from a sparse encoder until they span the
// segment: sparse vectors give out-of-order pivots and plenty of dependent
// arrivals on their own.
func sparseArrivals(t *testing.T, rng *rand.Rand, seg *Segment) []*CodedBlock {
	t.Helper()
	enc := NewEncoder(seg, rng)
	probe := newRefDecoder(seg.Params())
	var blocks []*CodedBlock
	for !probe.Ready() {
		b := sparseBlock(enc, 0.25)
		if _, err := probe.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		if len(blocks) > 200*seg.Params().BlockCount {
			t.Fatal("sparse stream failed to reach full rank")
		}
	}
	return append(blocks, sparseBlock(enc, 0.25))
}

// handoverArrivals is a stream that stays binary for its first r arrivals —
// shuffled unit vectors and XORs of a few source blocks, the shapes a
// systematic session sends — and is dense from there on.
func handoverArrivals(t *testing.T, rng *rand.Rand, seg *Segment, r int) []*CodedBlock {
	t.Helper()
	n := seg.Params().BlockCount
	enc := NewEncoder(seg, rng)
	blocks := make([]*CodedBlock, 0, r+n+2)
	for _, i := range rng.Perm(n)[:min(r, n)] {
		coeffs := make([]byte, n)
		coeffs[i] = 1
		if len(blocks)%3 == 2 { // every third one an XOR repair block
			coeffs[rng.Intn(n)] = 1
			coeffs[rng.Intn(n)] = 1
		}
		b, err := enc.BlockFor(coeffs)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	for i := 0; i < n+2; i++ {
		blocks = append(blocks, enc.NextBlock())
	}
	return blocks
}

// heldBytes is the storage a decoder pins: GF(2) rows, plane and slab, and
// the output the segment decodes into.
func heldBytes(d *Decoder) int {
	held := len(d.plane) + len(d.slab) + len(d.out)
	if d.xorOnly {
		for _, row := range d.rowForPivot {
			held += len(row)
		}
	}
	return held
}

// lockstep feeds blocks to a Decoder and a refDecoder together and fails on
// the first divergence. The state blob is compared after every blobEvery-th
// arrival and after the last one.
func lockstep(t *testing.T, what string, seg *Segment, blocks []*CodedBlock, blobEvery int) {
	t.Helper()
	p := seg.Params()
	n, k := p.BlockCount, p.BlockSize
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefDecoder(p)
	var accepted []*CodedBlock
	for i, b := range blocks {
		want, err := ref.AddBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.AddBlock(b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || dec.Rank() != ref.rank || dec.Received() != ref.received || dec.Dependent() != ref.dependent {
			t.Fatalf("%s arrival %d: innovative %v/%v rank %d/%d received %d/%d dependent %d/%d", what, i,
				got, want, dec.Rank(), ref.rank, dec.Received(), ref.received, dec.Dependent(), ref.dependent)
		}
		if held, bound := heldBytes(dec), n*k+2*n*n+n*k; held > bound {
			t.Fatalf("%s arrival %d: decoder holds %d bytes, bound %d", what, i, held, bound)
		}
		// Before rank n the dense path must not have touched a payload: the
		// slab holds the accepted arrivals' payloads exactly as received.
		if got && !dec.xorOnly {
			accepted = append(accepted, b)
		}
		if dec.plane != nil {
			if dec.xorOnly || dec.Ready() {
				t.Fatalf("%s arrival %d: plane held outside the dense path", what, i)
			}
			base := dec.Rank() - len(accepted) // rows the GF(2) path handed over
			for j, a := range accepted {
				if !bytes.Equal(dec.slab[(base+j)*k:(base+j+1)*k], a.Payload) {
					t.Fatalf("%s arrival %d: slab row %d is not the payload as received", what, i, base+j)
				}
			}
		}
		if dec.Ready() && (dec.scr != nil || dec.plane != nil || dec.slab != nil) {
			t.Fatalf("%s arrival %d: plane and slab not released at rank n", what, i)
		}
		if i%blobEvery == 0 || i == len(blocks)-1 {
			blob, err := dec.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blob, ref.MarshalBinary()) {
				t.Fatalf("%s arrival %d (rank %d): state blob diverges from the reference", what, i, dec.Rank())
			}
		}
	}
	want, err := ref.Segment()
	if err != nil {
		t.Fatalf("%s: reference decode: %v", what, err)
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !got.Equal(want) || !got.Equal(seg) {
		t.Fatalf("%s: decoded segment diverges from the reference or the source", what)
	}
	if again, _ := dec.Segment(); again != got {
		t.Fatalf("%s: Segment returned a second copy", what)
	}
	for i := 0; i < n; i++ {
		if blk, ok := dec.Block(i); !ok || !bytes.Equal(blk, seg.Block(i)) {
			t.Fatalf("%s: Block(%d) unavailable or wrong at rank n", what, i)
		}
	}
}

// resumeFrom cuts the stream at every cut-th arrival: the decoder is
// serialized there, restored into a fresh one, and the restored decoder must
// finish the stream on the same segment and the same final blob.
func resumeFrom(t *testing.T, what string, seg *Segment, blocks []*CodedBlock, cut int) {
	t.Helper()
	p := seg.Params()
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if i%cut == 0 {
			blob, err := dec.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			back := new(Decoder)
			if err := back.UnmarshalBinary(blob); err != nil {
				t.Fatalf("%s cut %d: %v", what, i, err)
			}
			if back.Rank() != dec.Rank() {
				t.Fatalf("%s cut %d: restored rank %d, want %d", what, i, back.Rank(), dec.Rank())
			}
			if _, err := back.AddBlocks(blocks[i:]); err != nil {
				t.Fatal(err)
			}
			got, err := back.Segment()
			if err != nil {
				t.Fatalf("%s cut %d: %v", what, i, err)
			}
			if !got.Equal(seg) {
				t.Fatalf("%s cut %d: resumed decode diverges from the source", what, i)
			}
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDecodeLadderDifferential(t *testing.T) {
	for _, n := range []int{1, 2, 32, 60, 128} {
		p := Params{BlockCount: n, BlockSize: 72 + n%5}
		rng := rand.New(rand.NewSource(int64(1000 * n)))
		data := make([]byte, p.SegmentSize())
		rng.Read(data)
		seg, err := SegmentFromData(7, p, data)
		if err != nil {
			t.Fatal(err)
		}
		// Dense, shuffled, with duplicates and dependent combinations.
		dense := ladderArrivals(rng, seg, 2, 1+n/16)
		for i := 0; i < 1+n/16; i++ {
			at := rng.Intn(len(dense))
			dense = append(dense[:at+1], dense[at:]...)
			dense[at+1] = dense[at].Clone()
		}
		sparse := sparseArrivals(t, rng, seg)
		cut := 1
		if n > 60 {
			cut = 5
		}
		lockstep(t, fmt.Sprintf("n=%d dense", n), seg, dense, 1)
		lockstep(t, fmt.Sprintf("n=%d sparse", n), seg, sparse, 1)
		resumeFrom(t, fmt.Sprintf("n=%d dense", n), seg, dense, cut)
		resumeFrom(t, fmt.Sprintf("n=%d sparse", n), seg, sparse, cut)

		// GF(2) → dense hand-over at every rank, the blob checked around the
		// hand-over and every few arrivals after it.
		for r := 0; r <= n; r++ {
			blocks := handoverArrivals(t, rng, seg, r)
			what := fmt.Sprintf("n=%d handover at %d", n, r)
			lockstep(t, what, seg, blocks, 1+n/8)
			if r%cut == 0 {
				resumeFrom(t, what, seg, blocks, max(r, 1))
			}
		}

		// AddBlocks is AddBlock in a loop, whatever the chunking — a short last
		// chunk included — and the offline entry point is the same decoder.
		// dense over-collects: extras past rank n are harmless.
		for _, chunk := range []int{1, 3, 5, len(dense)} {
			dec, err := NewDecoder(p)
			if err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < len(dense); lo += chunk {
				if _, err := dec.AddBlocks(dense[lo:min(lo+chunk, len(dense))]); err != nil {
					t.Fatal(err)
				}
			}
			if got, err := dec.Segment(); err != nil || !got.Equal(seg) {
				t.Fatalf("n=%d chunk=%d: AddBlocks decode diverges (%v)", n, chunk, err)
			}
		}
		if got, err := DecodeTwoStage(p, dense); err != nil || !got.Equal(seg) {
			t.Fatalf("n=%d: DecodeTwoStage diverges (%v)", n, err)
		}
	}
}

// TestDecoderDoneCostsNothing: a block offered after rank n is counted
// dependent without any work or allocation, and the slab a decoder drew is
// back in the scratch pool by then — decoding segment after segment allocates
// each output segment and little else.
func TestDecoderDoneCostsNothing(t *testing.T) {
	p := Params{BlockCount: 32, BlockSize: 1024}
	rng := rand.New(rand.NewSource(77))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(1, p, data)
	if err != nil {
		t.Fatal(err)
	}
	blocks := ladderArrivals(rng, seg, 0, 0)
	decode := func() *Decoder {
		dec, err := NewDecoder(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.AddBlocks(blocks); err != nil || !dec.Ready() {
			t.Fatalf("decode: ready %v, %v", dec.Ready(), err)
		}
		return dec
	}
	dec := decode()
	late := blocks[3]
	if a := testing.AllocsPerRun(50, func() {
		if innov, err := dec.AddBlock(late); innov || err != nil {
			t.Fatalf("late block: innovative %v, %v", innov, err)
		}
	}); a != 0 {
		t.Fatalf("a block after rank n allocates %v times", a)
	}
	if dec.Dependent() != 51 || dec.Received() != len(blocks)+51 {
		t.Fatalf("late blocks miscounted: dependent %d received %d", dec.Dependent(), dec.Received())
	}

	const rounds = 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	perDecode := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	// Without the pool every decode would allocate its slab and plane on top
	// of the output: more than twice the segment. (The race detector makes
	// sync.Pool drop a quarter of its Puts, hence the slack.)
	if limit := 1.6 * float64(p.SegmentSize()); perDecode > limit {
		t.Fatalf("a decode allocates %.0f bytes, want under %.0f: slab not reused from the pool", perDecode, limit)
	}
}

// TestAddBlocksRejectsBatchAtomically pins the transactional contract: a
// batch containing an invalid or wrong-segment block absorbs nothing.
func TestAddBlocksRejectsBatchAtomically(t *testing.T) {
	p := Params{BlockCount: 4, BlockSize: 32}
	rng := rand.New(rand.NewSource(41))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(3, p, data)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(seg, rng)
	good := []*CodedBlock{enc.NextBlock(), enc.NextBlock()}

	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	bad := enc.NextBlock()
	bad.Coeffs = bad.Coeffs[:3]
	if _, err := dec.AddBlocks([]*CodedBlock{good[0], bad}); err == nil {
		t.Fatal("batch with malformed block accepted")
	}
	wrongSeg := enc.NextBlock()
	wrongSeg.SegmentID = 9
	if _, err := dec.AddBlocks([]*CodedBlock{good[0], wrongSeg}); err == nil {
		t.Fatal("batch with wrong-segment block accepted before any absorb")
	}
	if dec.Rank() != 0 || dec.Received() != 0 {
		t.Fatalf("rejected batches mutated decoder state: rank %d received %d", dec.Rank(), dec.Received())
	}
	if _, err := dec.AddBlocks(good); err != nil {
		t.Fatal(err)
	}
	if dec.Rank() != 2 || dec.Received() != 2 {
		t.Fatalf("valid batch misabsorbed: rank %d received %d", dec.Rank(), dec.Received())
	}
	// Wrong-segment rejection must also hold against the established stream.
	if _, err := dec.AddBlocks([]*CodedBlock{wrongSeg}); err == nil {
		t.Fatal("wrong-segment batch accepted after absorb")
	}
}

// TestDecodeTwoStageRankDeficient pins the error path when blocks cannot
// span the segment: a dependent mix, and n copies of one block.
func TestDecodeTwoStageRankDeficient(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 16}
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(1, p, data)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(seg, rng)
	blocks := []*CodedBlock{enc.NextBlock(), enc.NextBlock()}
	blocks = append(blocks, dependentMix(rng, blocks[0], blocks[1]))
	if _, err := DecodeTwoStage(p, blocks); !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("rank-deficient block set: %v, want %v", err, ErrRankDeficient)
	}
	copies := make([]*CodedBlock, p.BlockCount)
	for i := range copies {
		copies[i] = blocks[0].Clone()
	}
	if _, err := DecodeTwoStage(p, copies); !errors.Is(err, ErrRankDeficient) {
		t.Fatalf("%d copies of one block: %v, want %v", p.BlockCount, err, ErrRankDeficient)
	}
}

// BenchmarkDecodeLadder measures the decoder against the one it replaced at
// the paper's streaming configuration (n=128, k=4096): "reference" is
// refDecoder, progressive Gauss–Jordan on [C | x] rows, and "two-stage" is
// Decoder fed the same arrivals one AddBlock at a time. Throughput is decoded
// source bytes per second, so the rungs are directly comparable.
func BenchmarkDecodeLadder(b *testing.B) {
	p := Params{BlockCount: 128, BlockSize: 4096}
	rng := rand.New(rand.NewSource(51))
	data := make([]byte, p.SegmentSize())
	rng.Read(data)
	seg, err := SegmentFromData(1, p, data)
	if err != nil {
		b.Fatal(err)
	}
	blocks := ladderArrivals(rng, seg, 2, 0)
	segBytes := int64(p.SegmentSize())

	check := func(b *testing.B, got *Segment, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if !got.Equal(seg) {
			b.Fatal("decoded segment diverges from source")
		}
	}

	b.Run("reference", func(b *testing.B) {
		b.SetBytes(segBytes)
		for i := 0; i < b.N; i++ {
			dec := newRefDecoder(p)
			for _, blk := range blocks {
				if _, err := dec.AddBlock(blk); err != nil {
					b.Fatal(err)
				}
				if dec.Ready() {
					break
				}
			}
			got, err := dec.Segment()
			check(b, got, err)
		}
	})
	b.Run("two-stage", func(b *testing.B) {
		b.SetBytes(segBytes)
		for i := 0; i < b.N; i++ {
			dec, err := NewDecoder(p)
			if err != nil {
				b.Fatal(err)
			}
			for _, blk := range blocks {
				if _, err := dec.AddBlock(blk); err != nil {
					b.Fatal(err)
				}
				if dec.Ready() {
					break
				}
			}
			got, err := dec.Segment()
			check(b, got, err)
		}
	})
}
