package rlnc

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
)

func testSegment(t testing.TB, id uint32, p Params, seed int64) *Segment {
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

// TestSystematicCyclePhases walks one full emission cycle and checks each
// phase's invariants: verbatim unit-vector sources, ≥2-bit GF(2) repair
// bitmasks with pure-XOR payloads, all-nonzero dense tails, then a restart.
func TestSystematicCyclePhases(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 96}
	seg := testSegment(t, 7, p, 140)
	se := NewSystematicEncoder(seg, rand.New(rand.NewSource(141)), WithXorRepair(5), WithDenseTail(3))

	n := p.BlockCount
	// Phase 1: n verbatim source blocks.
	for i := 0; i < n; i++ {
		if got := se.SystematicRemaining(); got != n-i {
			t.Fatalf("block %d: SystematicRemaining = %d, want %d", i, got, n-i)
		}
		b := se.Block()
		if !bytes.Equal(b.Payload, seg.Block(i)) {
			t.Fatalf("systematic block %d payload differs from source", i)
		}
		for c, v := range b.Coeffs {
			want := byte(0)
			if c == i {
				want = 1
			}
			if v != want {
				t.Fatalf("systematic block %d coeff %d = %d", i, c, v)
			}
		}
	}
	// Phase 2: GF(2) repair — binary, ≥2 sources, payload = XOR of selection.
	for i := 0; i < se.XorRepair(); i++ {
		b := se.Block()
		if !b.IsBinary() {
			t.Fatalf("xor repair block %d is not binary", i)
		}
		bits := 0
		for _, v := range b.Coeffs {
			bits += int(v)
		}
		if bits < 2 {
			t.Fatalf("xor repair block %d selects %d sources, want ≥ 2", i, bits)
		}
		if !consistentWithSource(seg, b) {
			t.Fatalf("xor repair block %d payload is not the claimed XOR", i)
		}
	}
	// Phase 3: dense tail — every coefficient nonzero.
	for i := 0; i < se.DenseTail(); i++ {
		b := se.Block()
		for c, v := range b.Coeffs {
			if v == 0 {
				t.Fatalf("dense tail block %d has zero coeff at %d", i, c)
			}
		}
		if !consistentWithSource(seg, b) {
			t.Fatalf("dense tail block %d inconsistent", i)
		}
	}
	// Cycle restarts at the systematic sweep.
	if got := se.SystematicRemaining(); got != n {
		t.Fatalf("after full cycle SystematicRemaining = %d, want %d", got, n)
	}
	b := se.Block()
	if !bytes.Equal(b.Payload, seg.Block(0)) || b.Coeffs[0] != 1 {
		t.Fatal("cycle restart did not re-emit source block 0")
	}
}

// TestSystematicBlockZeroAlloc pins the zero-allocation guarantee of the
// non-retaining emit path across all three phases of the cycle.
func TestSystematicBlockZeroAlloc(t *testing.T) {
	p := Params{BlockCount: 32, BlockSize: 256}
	seg := testSegment(t, 3, p, 142)
	se := NewSystematicEncoder(seg, rand.New(rand.NewSource(143)))
	cycle := p.BlockCount + se.XorRepair() + se.DenseTail()
	// Warm up one full cycle (lazy caches, e.g. seg.Blocks()).
	for i := 0; i < cycle; i++ {
		se.Block()
	}
	if avg := testing.AllocsPerRun(3*cycle, func() { _ = se.Block() }); avg != 0 {
		t.Fatalf("SystematicEncoder.Block allocates %.2f per emit, want 0", avg)
	}
}

// TestXorWireRoundTrip: MarshalBinaryXor/UnmarshalBinaryXor round-trips
// systematic and repair blocks across byte-aligned and ragged block counts.
func TestXorWireRoundTrip(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 12, 64, 65} {
		p := Params{BlockCount: n, BlockSize: 48}
		seg := testSegment(t, 11, p, int64(150+n))
		se := NewSystematicEncoder(seg, rand.New(rand.NewSource(int64(151+n))), WithXorRepair(3), WithDenseTail(0))
		for i := 0; i < n+3; i++ {
			b := se.Block()
			wire, err := b.MarshalBinaryXor()
			if err != nil {
				t.Fatalf("n=%d block %d: %v", n, i, err)
			}
			if len(wire) != XorWireSize(p) {
				t.Fatalf("n=%d: wire is %d bytes, XorWireSize says %d", n, len(wire), XorWireSize(p))
			}
			var back CodedBlock
			if err := back.UnmarshalBinaryXor(wire); err != nil {
				t.Fatalf("n=%d block %d: %v", n, i, err)
			}
			if back.SegmentID != b.SegmentID || !bytes.Equal(back.Coeffs, b.Coeffs) || !bytes.Equal(back.Payload, b.Payload) {
				t.Fatalf("n=%d block %d: round trip differs", n, i)
			}
			// The dispatcher must route XNC2 records identically.
			var disp CodedBlock
			if err := disp.UnmarshalRecord(wire); err != nil {
				t.Fatalf("n=%d UnmarshalRecord: %v", n, err)
			}
			if !bytes.Equal(disp.Coeffs, b.Coeffs) {
				t.Fatalf("n=%d: UnmarshalRecord dispatch differs", n)
			}
		}
	}
}

// TestXorWireRejectsDense: the GF(2) encoding refuses non-binary blocks.
func TestXorWireRejectsDense(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 32}
	seg := testSegment(t, 1, p, 160)
	enc := NewEncoder(seg, rand.New(rand.NewSource(161)))
	b := enc.NextBlock()
	if b.IsBinary() {
		t.Skip("dense draw happened to be binary")
	}
	if _, err := b.MarshalBinaryXor(); !errors.Is(err, ErrNotBinary) {
		t.Fatalf("MarshalBinaryXor on dense block: %v, want ErrNotBinary", err)
	}
}

// TestXorWireHostileBitmask: a record with bits set beyond the block count —
// but a valid checksum — must be rejected, not silently truncated: otherwise
// two distinct wire records could alias one logical block.
func TestXorWireHostileBitmask(t *testing.T) {
	p := Params{BlockCount: 12, BlockSize: 48} // n%8 != 0 → 4 trailing bits
	seg := testSegment(t, 5, p, 162)
	se := NewSystematicEncoder(seg, rand.New(rand.NewSource(163)))
	wire, err := se.Block().MarshalBinaryXor()
	if err != nil {
		t.Fatal(err)
	}
	hostile := rehashXorWire(append([]byte(nil), wire...), func(w []byte) {
		m := BitmaskLen(p.BlockCount)
		w[wireHeaderLen+m-1] |= 1 << 7 // bit 15 of a 12-block mask
	})
	var blk CodedBlock
	if err := blk.UnmarshalBinaryXor(hostile); !errors.Is(err, ErrBadBitmask) {
		t.Fatalf("hostile trailing bit: %v, want ErrBadBitmask", err)
	}

	// Corruption without rehashing fails the checksum first.
	flipped := append([]byte(nil), wire...)
	flipped[wireHeaderLen] ^= 0xFF
	if err := blk.UnmarshalBinaryXor(flipped); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("bit flip: %v, want ErrBadChecksum", err)
	}

	// Truncation is detected before any field is trusted.
	if err := blk.UnmarshalBinaryXor(wire[:len(wire)-5]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated record: %v, want ErrTruncated", err)
	}
}

// rehashXorWire applies mutate and recomputes the trailing CRC so the record
// is checksum-valid but semantically hostile.
func rehashXorWire(w []byte, mutate func([]byte)) []byte {
	mutate(w)
	sum := crc32.ChecksumIEEE(w[:len(w)-wireTrailerLen])
	binary.BigEndian.PutUint32(w[len(w)-wireTrailerLen:], sum)
	return w
}

// TestSystematicXorVsDenseDifferential: a systematic+XOR session and a dense
// session over the same lossy, shuffled channel recover byte-identical
// segments, and the systematic decoder stays on the XOR fast path until its
// first dense-tail block.
func TestSystematicXorVsDenseDifferential(t *testing.T) {
	for _, seed := range []int64{170, 171, 172} {
		p := Params{BlockCount: 24, BlockSize: 96}
		seg := testSegment(t, 9, p, seed)
		rng := rand.New(rand.NewSource(seed + 1000))

		// Channel: drop every 7th block, shuffle within a sliding window of 5.
		channel := func(emit func() *CodedBlock, count int) []*CodedBlock {
			var out []*CodedBlock
			for i := 0; i < count; i++ {
				b := emit().Clone()
				if i%7 == 3 {
					continue // lost
				}
				out = append(out, b)
			}
			for i := range out {
				j := i + rng.Intn(min(5, len(out)-i))
				out[i], out[j] = out[j], out[i]
			}
			return out
		}

		se := NewSystematicEncoder(seg, rand.New(rand.NewSource(seed+1)))
		de := NewEncoder(seg, rand.New(rand.NewSource(seed+2)))
		sysBlocks := channel(se.Block, 3*p.BlockCount)
		denseBlocks := channel(func() *CodedBlock { return de.NextBlock() }, 3*p.BlockCount)

		decode := func(blocks []*CodedBlock, wantFastPath bool) *Segment {
			d, err := NewDecoder(p)
			if err != nil {
				t.Fatal(err)
			}
			sawDense := false
			for _, b := range blocks {
				if !b.IsBinary() {
					sawDense = true
				}
				if _, err := d.AddBlock(b); err != nil {
					t.Fatal(err)
				}
				if wantFastPath && d.xorOnly != !sawDense {
					t.Fatalf("seed %d: xorOnly=%v after sawDense=%v", seed, d.xorOnly, sawDense)
				}
				if d.Ready() {
					break
				}
			}
			if !d.Ready() {
				t.Fatalf("seed %d: stream of %d blocks did not reach full rank", seed, len(blocks))
			}
			s, err := d.Segment()
			if err != nil {
				t.Fatal(err)
			}
			return s
		}

		sysSeg := decode(sysBlocks, true)
		denseSeg := decode(denseBlocks, false)
		if !sysSeg.Equal(seg) || !denseSeg.Equal(seg) {
			t.Fatalf("seed %d: recovered segment differs from source", seed)
		}
		if !sysSeg.Equal(denseSeg) {
			t.Fatalf("seed %d: systematic and dense sessions disagree", seed)
		}
	}
}

// TestXorFastPathDenseFallbackBoundary: binary blocks carry the decoder to
// rank n−1 on the fast path; the single dense-fallback block closes the last
// rank and drops the decoder into the general machinery — the boundary the
// dense tail exists for.
func TestXorFastPathDenseFallbackBoundary(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 64}
	seg := testSegment(t, 13, p, 180)
	d, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	se := NewSystematicEncoder(seg, rand.New(rand.NewSource(181)))
	// Absorb all but the last systematic block: rank n−1, pure fast path.
	for i := 0; i < p.BlockCount-1; i++ {
		innovative, err := d.AddBlock(se.Block())
		if err != nil {
			t.Fatal(err)
		}
		if !innovative {
			t.Fatalf("systematic block %d not innovative", i)
		}
	}
	if d.Rank() != p.BlockCount-1 || !d.xorOnly {
		t.Fatalf("rank=%d xorOnly=%v before fallback, want n-1/true", d.Rank(), d.xorOnly)
	}
	// A dense block closes the final rank with probability 255/256; emit one
	// directly (zero-free coefficients guarantee it covers the missing pivot).
	enc := NewEncoder(seg, rand.New(rand.NewSource(182)))
	b := enc.NextBlock()
	if b.IsBinary() {
		t.Fatal("dense draw is binary; pick another seed")
	}
	innovative, err := d.AddBlock(b)
	if err != nil {
		t.Fatal(err)
	}
	if !innovative || !d.Ready() {
		t.Fatalf("dense fallback: innovative=%v ready=%v", innovative, d.Ready())
	}
	if d.xorOnly {
		t.Fatal("dense block left xorOnly set")
	}
	got, err := d.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("boundary decode differs from source")
	}
}

// TestXorFastPathBatchedAbsorb: AddBlocks keeps an all-binary batch on the
// XOR path and leaves it at the first dense block of a mixed one, with state
// byte-identical to feeding the same blocks one AddBlock at a time.
func TestXorFastPathBatchedAbsorb(t *testing.T) {
	p := Params{BlockCount: 20, BlockSize: 80}
	seg := testSegment(t, 17, p, 190)
	se := NewSystematicEncoder(seg, rand.New(rand.NewSource(191)))
	enc := NewEncoder(seg, rand.New(rand.NewSource(192)))

	var binaries []*CodedBlock
	for i := 0; i < p.BlockCount/2; i++ {
		binaries = append(binaries, se.Block().Clone())
	}
	mixed := []*CodedBlock{se.Block().Clone(), enc.NextBlock(), se.Block().Clone()}

	batched, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := batched.AddBlocks(binaries); err != nil {
		t.Fatal(err)
	}
	if !batched.xorOnly {
		t.Fatal("all-binary batch cleared xorOnly")
	}
	if _, err := batched.AddBlocks(mixed); err != nil {
		t.Fatal(err)
	}
	if batched.xorOnly {
		t.Fatal("mixed batch left xorOnly set")
	}
	for _, b := range append(append([]*CodedBlock(nil), binaries...), mixed...) {
		if _, err := serial.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if batched.Rank() != serial.Rank() {
		t.Fatalf("batched rank %d != serial rank %d", batched.Rank(), serial.Rank())
	}
	for c := 0; c < p.BlockCount; c++ {
		br, sr := batched.rowForPivot[c], serial.rowForPivot[c]
		if (br == nil) != (sr == nil) {
			t.Fatalf("pivot %d presence differs", c)
		}
		if br != nil && !bytes.Equal(br, sr) {
			t.Fatalf("pivot %d row differs between batched and serial absorb", c)
		}
	}
}

// TestDecoderStateXorOnlyRoundTrip: serializing mid-decode and restoring
// recomputes the fast-path gate from the stored rows.
func TestDecoderStateXorOnlyRoundTrip(t *testing.T) {
	p := Params{BlockCount: 12, BlockSize: 32}
	seg := testSegment(t, 21, p, 200)
	se := NewSystematicEncoder(seg, rand.New(rand.NewSource(201)))

	d, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.BlockCount/2; i++ {
		if _, err := d.AddBlock(se.Block()); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var back Decoder
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !back.xorOnly {
		t.Fatal("restored binary-row decoder lost the fast path")
	}

	// Absorb a dense block, re-serialize: the restored decoder must stay off
	// the fast path because its rows now hold GF(2^8) values.
	enc := NewEncoder(seg, rand.New(rand.NewSource(202)))
	if _, err := d.AddBlock(enc.NextBlock()); err != nil {
		t.Fatal(err)
	}
	blob, err = d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := back.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if back.xorOnly {
		t.Fatal("restored dense-row decoder claims the fast path")
	}
}

// TestSystematicRepairBlock: RepairBlock runs cycles past the sweep — XorRepair
// GF(2) blocks then DenseTail dense ones, never a verbatim source block — from
// wherever the encoder stood, leaves Block's own cycle meaning alone, and with
// an empty schedule emits dense blocks.
func TestSystematicRepairBlock(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 96}
	seg := testSegment(t, 7, p, 150)
	se := NewSystematicEncoder(seg, rand.New(rand.NewSource(151)), WithXorRepair(3), WithDenseTail(2))
	se.Block() // mid-sweep: RepairBlock abandons it
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 5; i++ {
			b := se.RepairBlock()
			if binary := b.IsBinary(); binary != (i < 3) {
				t.Fatalf("cycle %d repair block %d: binary = %v", cycle, i, binary)
			}
			bits := 0
			for _, v := range b.Coeffs {
				if v != 0 {
					bits++
				}
			}
			if bits < 2 {
				t.Fatalf("cycle %d repair block %d selects %d sources: a source block verbatim", cycle, i, bits)
			}
			if !consistentWithSource(seg, b) {
				t.Fatalf("cycle %d repair block %d inconsistent with the source", cycle, i)
			}
		}
	}
	// A finished repair cycle is a finished cycle: Block starts the next sweep.
	if got := se.SystematicRemaining(); got != p.BlockCount {
		t.Fatalf("after a repair cycle SystematicRemaining = %d, want %d", got, p.BlockCount)
	}
	if b := se.Block(); b.Coeffs[0] != 1 || !bytes.Equal(b.Payload, seg.Block(0)) {
		t.Fatal("Block after a repair cycle did not start a sweep")
	}

	se.SetSchedule(0, 0)
	for i := 0; i < 4; i++ {
		b := se.RepairBlock()
		if b.IsBinary() || !consistentWithSource(seg, b) {
			t.Fatalf("empty schedule: repair block %d is not a consistent dense block", i)
		}
	}
	if avg := testing.AllocsPerRun(50, func() { _ = se.RepairBlock() }); avg != 0 {
		t.Fatalf("RepairBlock allocates %.2f per emit, want 0", avg)
	}
}

// TestWireSizes: the per-parameter sizes agree with what the marshalers
// produce, for byte-aligned and ragged block counts.
func TestWireSizes(t *testing.T) {
	for _, p := range []Params{{BlockCount: 1, BlockSize: 1}, {BlockCount: 9, BlockSize: 33}, {BlockCount: 128, BlockSize: 4096}} {
		seg := testSegment(t, 1, p, 152)
		se := NewSystematicEncoder(seg, rand.New(rand.NewSource(153)))
		b := se.Block()
		dense, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		xor, err := b.MarshalBinaryXor()
		if err != nil {
			t.Fatal(err)
		}
		if WireSize(p) != len(dense) || b.WireSize() != len(dense) || XorWireSize(p) != len(xor) {
			t.Fatalf("%v: WireSize %d / %d, XorWireSize %d; marshaled %d and %d",
				p, WireSize(p), b.WireSize(), XorWireSize(p), len(dense), len(xor))
		}
	}
}

// TestXorPathRowsArePooled: the GF(2) path stages every arrival in a slab from
// the scratch pool — no allocation per record, dependent ones included — hands
// the slab back at rank n and at the hand-over to the dense path, and decodes
// the same bytes either way.
func TestXorPathRowsArePooled(t *testing.T) {
	p := Params{BlockCount: 32, BlockSize: 512}
	seg := testSegment(t, 4, p, 154)
	se := NewSystematicEncoder(seg, rand.New(rand.NewSource(155)), WithXorRepair(8), WithDenseTail(4))
	sweep := make([]*CodedBlock, p.BlockCount)
	for i := range sweep {
		sweep[i], _ = se.NextBlock()
	}
	repair := make([]*CodedBlock, 8)
	for i := range repair {
		repair[i], _ = se.NextBlock()
	}
	dense, _ := se.NextBlock()

	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	// Source blocks, each offered twice: the duplicate is dependent, and staged
	// in the slab all the same.
	i := 0
	if a := testing.AllocsPerRun(p.BlockCount-3, func() {
		if _, err := dec.AddBlock(sweep[i]); err != nil {
			t.Fatal(err)
		}
		if _, err := dec.AddBlock(sweep[i]); err != nil { // a duplicate: dependent
			t.Fatal(err)
		}
		i++
	}); a != 0 {
		t.Fatalf("a GF(2) arrival allocates %v times, want 0", a)
	}
	if dec.scr == nil || dec.xorRows == nil {
		t.Fatal("GF(2) rows are not in a pooled slab")
	}
	blob, err := dec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	finish := func(d *Decoder, rest []*CodedBlock) *Segment {
		t.Helper()
		for _, b := range rest {
			if _, err := d.AddBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		if !d.Ready() || d.scr != nil || d.xorRows != nil || d.plane != nil {
			t.Fatalf("ready %v with storage still held (scr %v)", d.Ready(), d.scr != nil)
		}
		got, err := d.Segment()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	// A resumed copy finishes on GF(2); the original goes dense first.
	resumed := new(Decoder)
	if err := resumed.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !resumed.xorOnly || resumed.xorRows == nil {
		t.Fatal("resumed decoder left the GF(2) path")
	}
	if got := finish(resumed, append(repair, sweep[i:]...)); !got.Equal(seg) {
		t.Fatal("GF(2) finish decoded different bytes")
	}
	if _, err := dec.AddBlock(dense); err != nil {
		t.Fatal(err)
	}
	if dec.xorRows != nil || dec.plane == nil {
		t.Fatal("hand-over to the dense path kept the GF(2) slab")
	}
	if got := finish(dec, sweep[i:]); !got.Equal(seg) {
		t.Fatal("dense finish decoded different bytes")
	}
}
