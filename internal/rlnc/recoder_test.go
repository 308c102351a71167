package rlnc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestRecodeThenDecodeDifferential is the recoder's differential gate:
// decoding a recoded stream must reconstruct the source byte-identically to
// decoding the encoder's blocks directly — the "oblivious to recoding hops"
// property that lets a relay mesh interpose freely.
func TestRecodeThenDecodeDifferential(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 96}
	seg := randomSegment(t, 3, p, 101)
	rng := rand.New(rand.NewSource(102))
	enc := NewEncoder(seg, rng)

	// Direct decode of the encoder's own blocks.
	direct, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := NewRecoder(p, WithSeed(103))
	if err != nil {
		t.Fatal(err)
	}
	for !direct.Ready() {
		b := enc.NextBlock()
		if _, err := direct.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if err := rec.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	want, err := direct.Segment()
	if err != nil {
		t.Fatal(err)
	}

	// Decode from recoded emissions only.
	viaRelay, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !viaRelay.Ready() {
		b, err := rec.Emit()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(p); err != nil {
			t.Fatalf("emitted block invalid: %v", err)
		}
		if _, err := viaRelay.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if viaRelay.Received() > 20*p.BlockCount {
			t.Fatal("recoded stream failed to reach full rank")
		}
	}
	got, err := viaRelay.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) || !got.Equal(seg) {
		t.Fatal("recode-then-decode differs from direct decode")
	}
}

// TestRecoderRankPreservation: the recoder's rank must track the span of its
// input exactly — shuffled arrival order and linearly dependent duplicates
// must not inflate it, and its emissions must span exactly that subspace
// (a downstream decoder caps at the recoder's rank, never above).
func TestRecoderRankPreservation(t *testing.T) {
	p := Params{BlockCount: 12, BlockSize: 48}
	seg := randomSegment(t, 7, p, 201)
	rng := rand.New(rand.NewSource(202))
	enc := NewEncoder(seg, rng)

	const partial = 7 // hold the recoder below full rank
	blocks := make([]*CodedBlock, 0, partial)
	for i := 0; i < partial; i++ {
		blocks = append(blocks, enc.NextBlock())
	}
	rec, err := NewRecoder(p, WithSeed(203))
	if err != nil {
		t.Fatal(err)
	}
	// Shuffled arrival plus every block a second time (dependent).
	order := rng.Perm(partial)
	for _, i := range order {
		if err := rec.Add(blocks[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range order {
		if err := rec.Add(blocks[i].Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if rec.Rank() != partial {
		t.Fatalf("recoder rank = %d, want %d (dependent input must not count)", rec.Rank(), partial)
	}
	if len(rec.payloads) != partial {
		t.Fatalf("recoder holds %d rows, want %d (dependent input must not be stored)", len(rec.payloads), partial)
	}

	// Emissions span exactly the partial subspace: the downstream decoder
	// reaches rank `partial` and no further.
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30*p.BlockCount; i++ {
		b, err := rec.Emit()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if dec.Rank() != partial {
		t.Fatalf("decoder rank from partial recoder = %d, want exactly %d", dec.Rank(), partial)
	}
}

// TestRecoderEmitEmpty pins the defined behavior of an empty (rank-0)
// recoder: Emit and NextBlock fail with ErrNoBlocks, a seedless recoder's
// Emit fails with ErrNoSeed, and both leave the recoder usable afterwards.
func TestRecoderEmitEmpty(t *testing.T) {
	p := testParams()
	rec, err := NewRecoder(p, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Emit(); !errors.Is(err, ErrNoBlocks) {
		t.Fatalf("Emit on empty recoder: err = %v, want ErrNoBlocks", err)
	}
	if _, err := rec.NextBlock(rand.New(rand.NewSource(2))); !errors.Is(err, ErrNoBlocks) {
		t.Fatalf("NextBlock on empty recoder: err = %v, want ErrNoBlocks", err)
	}
	seedless, err := NewRecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := seedless.Emit(); !errors.Is(err, ErrNoSeed) {
		t.Fatalf("Emit on seedless recoder: err = %v, want ErrNoSeed", err)
	}

	// The failures must not wedge the recoder: after one Add it emits.
	seg := randomSegment(t, 0, p, 3)
	enc := NewEncoder(seg, rand.New(rand.NewSource(4)))
	if err := rec.Add(enc.NextBlock()); err != nil {
		t.Fatal(err)
	}
	b, err := rec.Emit()
	if err != nil {
		t.Fatalf("Emit after recovery: %v", err)
	}
	// Single-input passthrough: the emission must still be a valid block
	// inside the 1-dimensional span.
	if err := b.Validate(p); err != nil {
		t.Fatal(err)
	}
}

// TestRecoderSystematicInputs feeds a recoder the full systematic + XOR
// repair + dense tail schedule — including blocks round-tripped through the
// compact XNC2 wire encoding — and requires the recoded stream to decode
// byte-identically. This pins the defined behavior for relays sitting below
// a ModeSystematic origin.
func TestRecoderSystematicInputs(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 64}
	seg := randomSegment(t, 5, p, 301)
	rng := rand.New(rand.NewSource(302))
	se := NewSystematicEncoder(seg, rng)

	rec, err := NewRecoder(p, WithSeed(303))
	if err != nil {
		t.Fatal(err)
	}
	// One full schedule: n verbatim + repair + dense tail. Binary blocks
	// take the XNC2 marshal/unmarshal round trip first, exactly as a relay
	// would receive them off the wire.
	total := p.BlockCount + se.XorRepair() + se.DenseTail()
	for i := 0; i < total; i++ {
		b := se.Block()
		if b.IsBinary() {
			var rt CodedBlock
			if err := rt.UnmarshalRecord(xorWire(t, b)); err != nil {
				t.Fatal(err)
			}
			b = &rt
		}
		if err := rec.Add(b); err != nil {
			t.Fatalf("Add systematic block %d: %v", i, err)
		}
	}
	if rec.Rank() != p.BlockCount {
		t.Fatalf("recoder rank = %d after full systematic schedule, want %d", rec.Rank(), p.BlockCount)
	}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Ready() {
		b, err := rec.Emit()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if dec.Received() > 20*p.BlockCount {
			t.Fatal("recoded systematic stream failed to reach full rank")
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("recoded systematic stream decoded to different bytes")
	}
}

// TestRecoderXorRecode: under WithXorRecode the recoder emits GF(2)
// recombinations — binary input yields binary (XNC2-framable) output — and
// the XOR-only stream still decodes byte-identically. With a dense input in
// the mix the output stops being binary but stays decodable.
func TestRecoderXorRecode(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 64}
	seg := randomSegment(t, 9, p, 401)
	rng := rand.New(rand.NewSource(402))
	se := NewSystematicEncoder(seg, rng, WithDenseTail(0))

	rec, err := NewRecoder(p, WithSeed(403), WithXorRecode())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.BlockCount+se.XorRepair(); i++ {
		if err := rec.Add(se.Block()); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !dec.Ready() {
		b, err := rec.Emit()
		if err != nil {
			t.Fatal(err)
		}
		if !b.IsBinary() {
			t.Fatal("XOR recode over binary input emitted a non-binary block")
		}
		// Binary emissions must survive the compact wire encoding.
		if wire := xorWire(t, b); len(wire) != XorWireSize(p) {
			t.Fatalf("XNC2 emission wire size = %d, want %d", len(wire), XorWireSize(p))
		}
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if dec.Received() > 40*p.BlockCount {
			t.Fatal("XOR-recoded stream failed to reach full rank")
		}
	}
	got, err := dec.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(seg) {
		t.Fatal("XOR-recoded stream decoded to different bytes")
	}

	// A dense block in the mix: emissions may stop being binary but the
	// combination stays valid and decodable.
	denseRec, err := NewRecoder(p, WithSeed(404), WithXorRecode())
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(seg, rng)
	se.Reset()
	for i := 0; i < p.BlockCount; i++ {
		if err := denseRec.Add(se.Block()); err != nil {
			t.Fatal(err)
		}
	}
	if err := denseRec.Add(enc.NextBlock()); err != nil {
		t.Fatal(err)
	}
	dec2, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for !dec2.Ready() {
		b, err := denseRec.Emit()
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Validate(p); err != nil {
			t.Fatalf("mixed XOR emission invalid: %v", err)
		}
		if _, err := dec2.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		if dec2.Received() > 40*p.BlockCount {
			t.Fatal("mixed XOR-recoded stream failed to reach full rank")
		}
	}
	got2, err := dec2.Segment()
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(seg) {
		t.Fatal("mixed XOR-recoded stream decoded to different bytes")
	}
}

// TestRecoderClonesInput: Add must clone — a caller that reuses its block
// storage (the systematic encoder's zero-alloc emit, a receive loop's
// scratch record) must not corrupt blocks the recoder already holds.
func TestRecoderClonesInput(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 32}
	seg := randomSegment(t, 2, p, 501)
	enc := NewEncoder(seg, rand.New(rand.NewSource(502)))

	rec, err := NewRecoder(p, WithSeed(503))
	if err != nil {
		t.Fatal(err)
	}
	b := enc.NextBlock()
	coeffs := append([]byte(nil), b.Coeffs...)
	payload := append([]byte(nil), b.Payload...)
	if err := rec.Add(b); err != nil {
		t.Fatal(err)
	}
	// Trash the caller's copy.
	for i := range b.Coeffs {
		b.Coeffs[i] ^= 0xFF
	}
	for i := range b.Payload {
		b.Payload[i] ^= 0xAA
	}
	got, err := rec.Emit()
	if err != nil {
		t.Fatal(err)
	}
	// With a single held input the emission is a scaled copy: its coeffs
	// must be proportional to the original, never to the trashed storage.
	// Check by comparing the coefficient ratio at every non-zero position.
	var ratio byte
	for i := range got.Coeffs {
		if coeffs[i] == 0 {
			if got.Coeffs[i] != 0 {
				t.Fatal("emission has support outside the held block: mutation leaked in")
			}
			continue
		}
		if ratio == 0 {
			ratio = gfDiv(t, got.Coeffs[i], coeffs[i])
			continue
		}
		if gfDiv(t, got.Coeffs[i], coeffs[i]) != ratio {
			t.Fatal("emission is not a scalar multiple of the original block: mutation leaked in")
		}
	}
	_ = payload // payload proportionality follows from the decode gates above
	if bytes.Equal(got.Coeffs, b.Coeffs) {
		t.Fatal("emission equals the trashed caller storage")
	}
}

// recoderAt returns a seeded recoder holding rank inputs of seg: source blocks
// (binary) or fresh dense blocks.
func recoderAt(t *testing.T, seg *Segment, rank int, binary bool, opts ...Option) *Recoder {
	t.Helper()
	p := seg.Params()
	rec, err := NewRecoder(p, append([]Option{WithSeed(77)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	enc := NewEncoder(seg, rand.New(rand.NewSource(78)))
	for i := 0; rec.Rank() < rank; i++ {
		b := enc.NextBlock()
		if binary {
			b = &CodedBlock{SegmentID: seg.ID(), Coeffs: make([]byte, p.BlockCount), Payload: seg.Block(i)}
			b.Coeffs[i] = 1
		}
		if err := rec.Add(b); err != nil {
			t.Fatal(err)
		}
	}
	return rec
}

// TestRecoderEmitIntoMatchesEmit: a batch written into caller rows is byte for
// byte the same emissions, in order, as Emit one at a time on the same seed —
// at rank 1, n/2 and n, over binary and dense input, dense and GF(2) recoding,
// and with the batch starting mid-stream.
func TestRecoderEmitIntoMatchesEmit(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 96}
	seg := randomSegment(t, 3, p, 601)
	width := p.BlockCount + p.BlockSize
	for _, binary := range []bool{true, false} {
		for _, xor := range []bool{false, true} {
			for _, rank := range []int{1, p.BlockCount / 2, p.BlockCount} {
				var opts []Option
				if xor {
					opts = append(opts, WithXorRecode())
				}
				one, batched := recoderAt(t, seg, rank, binary, opts...), recoderAt(t, seg, rank, binary, opts...)
				for _, batch := range []int{1, 2, 7, 32} {
					rows := make([][]byte, batch)
					for i := range rows {
						rows[i] = bytes.Repeat([]byte{0xA5}, width+i%2) // dirty, and some longer than needed
					}
					if err := batched.EmitInto(rows); err != nil {
						t.Fatal(err)
					}
					for i, row := range rows {
						want, err := one.Emit()
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(row[:p.BlockCount], want.Coeffs) || !bytes.Equal(row[p.BlockCount:width], want.Payload) {
							t.Fatalf("binary=%v xor=%v rank %d: emission %d of a batch of %d differs from Emit", binary, xor, rank, i, batch)
						}
					}
				}
			}
		}
	}
}

// TestRecoderEmitIntoErrors: a short row is ErrBatchShape, an empty recoder
// ErrNoBlocks, a seedless one ErrNoSeed — and none of them costs the recoder a
// draw: what it emits afterwards is what an undisturbed twin emits.
func TestRecoderEmitIntoErrors(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 32}
	seg := randomSegment(t, 1, p, 611)
	width := p.BlockCount + p.BlockSize
	row := func() []byte { return make([]byte, width) }

	empty, err := NewRecoder(p, WithSeed(77))
	if err != nil {
		t.Fatal(err)
	}
	if err := empty.EmitInto([][]byte{row()}); !errors.Is(err, ErrNoBlocks) {
		t.Fatalf("EmitInto on an empty recoder: %v, want ErrNoBlocks", err)
	}
	seedless, err := NewRecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := seedless.EmitInto([][]byte{row()}); !errors.Is(err, ErrNoSeed) {
		t.Fatalf("EmitInto on a seedless recoder: %v, want ErrNoSeed", err)
	}

	rec, twin := recoderAt(t, seg, 4, false), recoderAt(t, seg, 4, false)
	if err := rec.EmitInto([][]byte{row(), make([]byte, width-1)}); !errors.Is(err, ErrBatchShape) {
		t.Fatalf("EmitInto with a short row: %v, want ErrBatchShape", err)
	}
	got, want := [][]byte{row(), row()}, [][]byte{row(), row()}
	if err := rec.EmitInto(got); err != nil {
		t.Fatal(err)
	}
	if err := twin.EmitInto(want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
		t.Fatal("a refused batch advanced the recoder's coefficient stream")
	}
}

// TestRecoderAddAllocations: a dependent arrival costs nothing, an innovative
// one its row (and at ranks 0, 1, 2, 4, … the probe's next slab, fewer than
// one per Add over a fill) — and a full batch emit, once sized, nothing either.
func TestRecoderAddAllocations(t *testing.T) {
	p := Params{BlockCount: 16, BlockSize: 64}
	seg := randomSegment(t, 0, p, 621)
	rec, err := NewRecoder(p, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	next := 0
	b := &CodedBlock{SegmentID: seg.ID(), Coeffs: make([]byte, p.BlockCount)}
	addSource := func() {
		clear(b.Coeffs)
		b.Coeffs[next], b.Payload = 1, seg.Block(next)
		if err := rec.Add(b); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if got := testing.AllocsPerRun(p.BlockCount-1, addSource); got != 1 || rec.Rank() != p.BlockCount {
		t.Fatalf("%.2f allocations per innovative Add (rank %d), want exactly 1", got, rec.Rank())
	}
	dependent, err := rec.Emit()
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := rec.Add(dependent); err != nil {
			t.Fatal(err)
		}
	}); got != 0 || rec.Rank() != p.BlockCount {
		t.Fatalf("%.2f allocations per dependent Add (rank %d), want 0", got, rec.Rank())
	}
	rows := make([][]byte, 8)
	for i := range rows {
		rows[i] = make([]byte, p.BlockCount+p.BlockSize)
	}
	if got := testing.AllocsPerRun(20, func() {
		if err := rec.EmitInto(rows); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("%.2f allocations per batch emit, want 0", got)
	}
}

// TestRecoderHoldKeepsCallerRows: Hold keeps the payload it is handed — the
// recoder's held payload is the caller's storage, not a copy — and a copy of
// the coefficient vector, so the caller may reuse the vector at once; it drops
// a dependent input, and refuses a vector or payload of the wrong length or an
// input of another segment. A recoder fed by Hold emits byte for byte what a
// twin on the same seed fed the same blocks by Add emits, one at a time and in
// a batch, dense and GF(2).
func TestRecoderHoldKeepsCallerRows(t *testing.T) {
	p := Params{BlockCount: 8, BlockSize: 48}
	n := p.BlockCount
	seg := randomSegment(t, 3, p, 631)
	for _, opts := range [][]Option{nil, {WithXorRecode()}} {
		enc := NewEncoder(seg, rand.New(rand.NewSource(632)))
		held, err := NewRecoder(p, append([]Option{WithSeed(633)}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		twin, _ := NewRecoder(p, append([]Option{WithSeed(633)}, opts...)...)
		vector := make([]byte, n)
		for held.Rank() < n {
			b := enc.NextBlock()
			payload := bytes.Clone(b.Payload)
			copy(vector, b.Coeffs)
			ok, err := held.Hold(seg.ID(), vector, payload)
			if err != nil || !ok {
				t.Fatalf("innovative input at rank %d: held %v, %v", held.Rank(), ok, err)
			}
			if last := held.payloads[held.Rank()-1]; &last[0] != &payload[0] {
				t.Fatal("the held payload is a copy of the caller's")
			}
			clear(vector) // the caller's to reuse: the recoder kept a copy
			if ok, err := held.Hold(seg.ID(), b.Coeffs, bytes.Clone(b.Payload)); ok || err != nil {
				t.Fatalf("a dependent input: held %v, %v", ok, err)
			}
			if err := twin.Add(b); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := held.Hold(seg.ID(), vector, make([]byte, p.BlockSize-1)); !errors.Is(err, ErrBlockShape) {
			t.Fatalf("short payload: %v, want ErrBlockShape", err)
		}
		if _, err := held.Hold(seg.ID(), vector[:n-1], make([]byte, p.BlockSize)); !errors.Is(err, ErrBlockShape) {
			t.Fatalf("short vector: %v, want ErrBlockShape", err)
		}
		if _, err := held.Hold(seg.ID()+1, vector, make([]byte, p.BlockSize)); !errors.Is(err, ErrWrongSegment) {
			t.Fatalf("input of another segment: %v, want ErrWrongSegment", err)
		}
		for i := range 4 {
			got, err := held.Emit()
			if err != nil {
				t.Fatal(err)
			}
			want, _ := twin.Emit()
			if !bytes.Equal(got.Coeffs, want.Coeffs) || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("emission %d over held input differs from its twin's over added blocks", i)
			}
		}
		got, want := [][]byte{make([]byte, n+p.BlockSize), make([]byte, n+p.BlockSize)}, [][]byte{make([]byte, n+p.BlockSize), make([]byte, n+p.BlockSize)}
		if err := held.EmitInto(got); err != nil {
			t.Fatal(err)
		}
		if err := twin.EmitInto(want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[0], want[0]) || !bytes.Equal(got[1], want[1]) {
			t.Fatal("a batch over held input differs from its twin's over added blocks")
		}
	}
}

// gfDiv is a tiny GF(2^8) division helper over the package's arithmetic,
// used only to verify scalar proportionality in tests.
func gfDiv(t *testing.T, a, b byte) byte {
	t.Helper()
	if b == 0 {
		t.Fatal("division by zero in proportionality check")
	}
	// Brute-force: find q with q·b == a, against the reference multiply the
	// package tests already define (rlnc_test.go).
	for q := 0; q < 256; q++ {
		if mulRef(byte(q), b) == a {
			return byte(q)
		}
	}
	t.Fatal("no quotient found: not a field?")
	return 0
}

// FuzzRecoder drives Add/Emit with adversarial block bytes: arbitrary
// coefficient and payload mutations, hostile segment IDs, and interleaved
// emissions. The recoder must never panic, never exceed rank n, never store
// dependent input, and every successful emission must validate.
func FuzzRecoder(f *testing.F) {
	p := Params{BlockCount: 4, BlockSize: 8}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(2))
	f.Add([]byte{255, 255, 255, 255}, uint8(0))
	f.Add([]byte{}, uint8(7))
	f.Fuzz(func(t *testing.T, raw []byte, nBlocks uint8) {
		rec, err := NewRecoder(p, WithSeed(1), WithXorRecode())
		if err != nil {
			t.Fatal(err)
		}
		dense, err := NewRecoder(p, WithSeed(2))
		if err != nil {
			t.Fatal(err)
		}
		off := 0
		next := func(n int) []byte {
			out := make([]byte, n)
			for i := range out {
				if off < len(raw) {
					out[i] = raw[off]
					off++
				}
			}
			return out
		}
		for i := 0; i < int(nBlocks%16); i++ {
			b := &CodedBlock{
				SegmentID: uint32(next(1)[0]) % 3,
				Coeffs:    next(p.BlockCount),
				Payload:   next(p.BlockSize),
			}
			for _, r := range []*Recoder{rec, dense} {
				before := r.Rank()
				err := r.Add(b)
				if r.Rank() > p.BlockCount {
					t.Fatalf("rank %d exceeds block count %d", r.Rank(), p.BlockCount)
				}
				if len(r.payloads) != r.Rank() || r.Rank() > before+1 {
					t.Fatalf("held %d rows at rank %d after rank %d: dependent input stored", len(r.payloads), r.Rank(), before)
				}
				out, eerr := r.Emit()
				if err == nil && r.Rank() > 0 && eerr != nil {
					t.Fatalf("Emit failed at rank %d: %v", r.Rank(), eerr)
				}
				if r.Rank() == 0 && !errors.Is(eerr, ErrNoBlocks) {
					t.Fatalf("Emit at rank 0: err = %v, want ErrNoBlocks", eerr)
				}
				if out != nil {
					if verr := out.Validate(p); verr != nil {
						t.Fatalf("emitted block invalid: %v", verr)
					}
				}
			}
		}
	})
}
