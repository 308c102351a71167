package core

import (
	"testing"

	"extremenc/internal/cpusim"
	"extremenc/internal/gpu"
	"extremenc/internal/rlnc"
)

func testSegment(t testing.TB, p rlnc.Params, seed int64) *rlnc.Segment {
	t.Helper()
	seg, err := RandomSegment(0, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return seg
}

// decodeAll verifies a report's materialized blocks decode back to seg.
func verifyBlocks(t *testing.T, seg *rlnc.Segment, blocks []*rlnc.CodedBlock) {
	t.Helper()
	p := seg.Params()
	dec, err := rlnc.NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if _, err := dec.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	if dec.Rank() != min(len(blocks), p.BlockCount) {
		t.Fatalf("rank %d from %d dense blocks", dec.Rank(), len(blocks))
	}
}

func TestDenseCoeffsProperties(t *testing.T) {
	m := DenseCoeffs(10, 20, 1)
	for r := 0; r < 10; r++ {
		for c := 0; c < 20; c++ {
			if m.At(r, c) == 0 {
				t.Fatal("dense coefficient is zero")
			}
		}
	}
	if !DenseCoeffs(3, 3, 7).Equal(DenseCoeffs(3, 3, 7)) {
		t.Fatal("DenseCoeffs not deterministic")
	}
}

func TestGPUEncoderEngine(t *testing.T) {
	p := rlnc.Params{BlockCount: 16, BlockSize: 512}
	seg := testSegment(t, p, 1)
	enc, err := NewGPUEncoder(gpu.GTX280(), gpu.TableBased5)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := enc.EncodeBlocks(seg, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bytes != 64*512 {
		t.Fatalf("bytes = %d", rep.Bytes)
	}
	if len(rep.Blocks) != defaultMaterialize {
		t.Fatalf("materialized %d", len(rep.Blocks))
	}
	if rep.BandwidthMBps() <= 0 || rep.Engine == "" {
		t.Fatal("bad report")
	}
	verifyBlocks(t, seg, rep.Blocks)

	if _, err := enc.EncodeBlocks(nil, 4, 1); err == nil {
		t.Fatal("nil segment accepted")
	}
	if _, err := enc.EncodeBlocks(seg, 0, 1); err == nil {
		t.Fatal("zero count accepted")
	}
}

func TestCPUEncoderEngine(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 256}
	seg := testSegment(t, p, 3)
	enc, err := NewCPUEncoder(cpusim.MacPro(), rlnc.FullBlock, cpusim.LoopSIMD)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := enc.EncodeBlocks(seg, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyBlocks(t, seg, rep.Blocks)
	if rep.BandwidthMBps() <= 0 {
		t.Fatal("no bandwidth")
	}
}

func TestHostEncoderEngine(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	seg := testSegment(t, p, 5)
	enc, err := NewHostEncoder(0, rlnc.FullBlock)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := enc.EncodeBlocks(seg, 12, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Blocks) != 12 {
		t.Fatalf("host encoder materialized %d blocks", len(rep.Blocks))
	}
	verifyBlocks(t, seg, rep.Blocks[:8])
	if _, err := NewHostEncoder(2, rlnc.EncodeMode(9)); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

// TestCombinedEncoderApproachesSum reproduces Sec. 5.4.1: GPU+CPU encoding
// reaches ≈ the sum of the individual bandwidths, with the GTX 280 at ≈4.3×
// the Mac Pro.
func TestCombinedEncoderApproachesSum(t *testing.T) {
	p := rlnc.Params{BlockCount: 128, BlockSize: 4096}
	seg := testSegment(t, p, 7)
	gpuEnc, err := NewGPUEncoder(gpu.GTX280(), gpu.TableBased5)
	if err != nil {
		t.Fatal(err)
	}
	cpuEnc, err := NewCPUEncoder(cpusim.MacPro(), rlnc.FullBlock, cpusim.LoopSIMD)
	if err != nil {
		t.Fatal(err)
	}
	const count = 4096
	gpuRep, err := gpuEnc.EncodeBlocks(seg, count, 8)
	if err != nil {
		t.Fatal(err)
	}
	cpuRep, err := cpuEnc.EncodeBlocks(seg, count, 9)
	if err != nil {
		t.Fatal(err)
	}
	gr, cr := gpuRep.BandwidthMBps(), cpuRep.BandwidthMBps()

	ratio := gr / cr
	if ratio < 3.8 || ratio > 4.9 {
		t.Errorf("GPU/CPU ratio = %.2f, want ≈4.3", ratio)
	}

	comb := NewCombinedEncoder(gpuEnc, cpuEnc)
	rep, err := comb.EncodeBlocks(seg, count, 10)
	if err != nil {
		t.Fatal(err)
	}
	sum := gr + cr
	if got := rep.BandwidthMBps(); got < 0.85*sum || got > 1.1*sum {
		t.Errorf("combined = %.1f MB/s, want ≈ sum %.1f", got, sum)
	}
}

func TestGPUDecoderEngines(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 256}
	seg := testSegment(t, p, 11)
	set := CodedSet(seg, p.BlockCount+1, 12)
	sets := [][]*rlnc.CodedBlock{set, set, set}

	single, err := NewGPUSingleDecoder(gpu.GTX280(), gpu.DecodeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := single.DecodeSegments(sets, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) != 3 || rep.Bytes != int64(3*p.SegmentSize()) {
		t.Fatalf("single decoder report: %d segments, %d bytes", len(rep.Segments), rep.Bytes)
	}
	for _, s := range rep.Segments {
		if !s.Equal(seg) {
			t.Fatal("single decode differs")
		}
	}

	multi, err := NewGPUMultiDecoder(gpu.GTX280(), 2)
	if err != nil {
		t.Fatal(err)
	}
	mrep, err := multi.DecodeSegments(sets, p)
	if err != nil {
		t.Fatal(err)
	}
	if mrep.Stage1Share <= 0 || mrep.Stage1Share >= 1 {
		t.Fatalf("stage-1 share = %v", mrep.Stage1Share)
	}
	for _, s := range mrep.Segments {
		if !s.Equal(seg) {
			t.Fatal("multi decode differs")
		}
	}

	if _, err := single.DecodeSegments(nil, p); err == nil {
		t.Fatal("empty sets accepted")
	}
}

func TestCPUDecoderEngines(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	seg := testSegment(t, p, 13)
	set := CodedSet(seg, p.BlockCount, 14)
	sets := [][]*rlnc.CodedBlock{set, set}

	coop, err := NewCPUCooperativeDecoder(cpusim.MacPro())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := coop.DecodeSegments(sets, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Segments) != 2 {
		t.Fatal("cooperative decoder segment count")
	}

	multi, err := NewCPUMultiDecoder(cpusim.MacPro())
	if err != nil {
		t.Fatal(err)
	}
	mrep, err := multi.DecodeSegments(sets, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range mrep.Segments {
		if !s.Equal(seg) {
			t.Fatal("multi decode differs")
		}
	}
	if _, err := coop.DecodeSegments(nil, p); err == nil {
		t.Fatal("empty sets accepted")
	}
}

func TestHostDecoder(t *testing.T) {
	p := rlnc.Params{BlockCount: 8, BlockSize: 128}
	seg := testSegment(t, p, 15)
	set := CodedSet(seg, p.BlockCount, 16)
	dec := NewHostDecoder(0)
	rep, err := dec.DecodeSegments([][]*rlnc.CodedBlock{set}, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Segments[0].Equal(seg) {
		t.Fatal("host decode differs")
	}
}

func TestStreamScenarioArithmetic(t *testing.T) {
	s := DefaultStreamScenario()

	if d := s.SegmentDuration(); d < 5.2 || d > 5.5 {
		t.Errorf("segment duration = %.2f s, want ≈5.33", d)
	}
	// Paper anchors: 133 MB/s → 1385 peers; 172 → 1844 (paper says >1844);
	// 294 → >3000.
	if p := s.PeersByCompute(133); p < 1350 || p > 1420 {
		t.Errorf("peers at 133 MB/s = %d, want ≈1385", p)
	}
	if p := s.PeersByCompute(177.2); p < 1800 || p > 1900 {
		t.Errorf("peers at 177 MB/s = %d, want ≈1844", p)
	}
	if p := s.PeersByCompute(294); p <= 3000 {
		t.Errorf("peers at 294 MB/s = %d, want > 3000", p)
	}
	// One GigE carries ≈1302 peers at 768 Kbps.
	if p := s.PeersByNetwork(); p < 1280 || p > 1330 {
		t.Errorf("network peers = %d", p)
	}
	// The binding constraint at 294 MB/s is the single NIC.
	if s.PeersServed(294) != s.PeersByNetwork() {
		t.Error("PeersServed should be NIC-bound at 294 MB/s")
	}
	if nics := s.NICsSaturated(294); nics < 2.0 {
		t.Errorf("294 MB/s saturates %.2f NICs, want ≥ 2", nics)
	}
	// ~1385 peers need >177k blocks per segment.
	if b := s.BlocksPerSegmentForPeers(1385); b < 177000 || b > 178000 {
		t.Errorf("blocks per segment = %d, want ≈177,280", b)
	}
	// Hundreds of segments fit in 1 GB of device memory.
	if c := s.GPUSegmentCapacity(1024 << 20); c < 2000 {
		t.Errorf("segment capacity = %d", c)
	}
}

func TestReportZeroSeconds(t *testing.T) {
	r := Report{Bytes: 100}
	if r.BandwidthMBps() != 0 {
		t.Fatal("zero-time bandwidth should be 0")
	}
	dr := DecodeReport{Bytes: 100}
	if dr.BandwidthMBps() != 0 {
		t.Fatal("zero-time decode bandwidth should be 0")
	}
}

// TestMultiGPUScaling: N identical GPUs reach ≈N× the single-device rate.
func TestMultiGPUScaling(t *testing.T) {
	p := rlnc.Params{BlockCount: 128, BlockSize: 4096}
	seg := testSegment(t, p, 21)
	single, err := NewGPUEncoder(gpu.GTX280(), gpu.TableBased5)
	if err != nil {
		t.Fatal(err)
	}
	const count = 8192
	srep, err := single.EncodeBlocks(seg, count, 22)
	if err != nil {
		t.Fatal(err)
	}
	for _, devices := range []int{2, 4} {
		grp, err := NewMultiGPUEncoder(gpu.GTX280(), gpu.TableBased5, devices)
		if err != nil {
			t.Fatal(err)
		}
		if grp.Size() != devices {
			t.Fatalf("group size = %d", grp.Size())
		}
		grep, err := grp.EncodeBlocks(seg, count, 23)
		if err != nil {
			t.Fatal(err)
		}
		scale := grep.BandwidthMBps() / srep.BandwidthMBps()
		if scale < 0.85*float64(devices) || scale > 1.1*float64(devices) {
			t.Errorf("%d GPUs scale %.2fx, want ≈%dx", devices, scale, devices)
		}
		verifyBlocks(t, seg, grep.Blocks[:min(len(grep.Blocks), p.BlockCount)])
	}
}

func TestEngineGroupValidation(t *testing.T) {
	enc, err := NewGPUEncoder(gpu.GTX280(), gpu.LoopBased)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngineGroup(enc); err == nil {
		t.Fatal("single-engine group accepted")
	}
	if _, err := NewEngineGroup(enc, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewMultiGPUEncoder(gpu.GTX280(), gpu.LoopBased, 1); err == nil {
		t.Fatal("1-device multi-GPU accepted")
	}
	grp, err := NewEngineGroup(enc, enc)
	if err != nil {
		t.Fatal(err)
	}
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	seg := testSegment(t, p, 24)
	if _, err := grp.EncodeBlocks(seg, 1, 25); err == nil {
		t.Fatal("undersized batch accepted")
	}
	if grp.Name() == "" {
		t.Fatal("empty group name")
	}
}

func TestSparseCoeffsProperties(t *testing.T) {
	m := SparseCoeffs(50, 40, 0.2, 9)
	nnz := 0
	for r := 0; r < m.Rows(); r++ {
		rowNnz := 0
		for _, c := range m.Row(r) {
			if c != 0 {
				nnz++
				rowNnz++
			}
		}
		if rowNnz == 0 {
			t.Fatalf("row %d is all zeros", r)
		}
	}
	frac := float64(nnz) / float64(50*40)
	if frac < 0.1 || frac > 0.35 {
		t.Fatalf("density = %.3f, want ≈0.2", frac)
	}
	if !SparseCoeffs(3, 3, 0.5, 4).Equal(SparseCoeffs(3, 3, 0.5, 4)) {
		t.Fatal("SparseCoeffs not deterministic")
	}
}

func TestEngineAccessorsAndMaterialize(t *testing.T) {
	gpuEnc, err := NewGPUEncoder(gpu.GTX280(), gpu.TableBased5)
	if err != nil {
		t.Fatal(err)
	}
	if gpuEnc.Device() == nil {
		t.Fatal("nil device accessor")
	}
	cpuEnc, err := NewCPUEncoder(cpusim.MacPro(), rlnc.FullBlock, cpusim.LoopSIMD)
	if err != nil {
		t.Fatal(err)
	}
	if cpuEnc.Machine() == nil {
		t.Fatal("nil machine accessor")
	}
	p := rlnc.Params{BlockCount: 8, BlockSize: 64}
	seg := testSegment(t, p, 30)

	gpuEnc.SetMaterialize(6)
	rep, err := gpuEnc.EncodeBlocks(seg, 16, 31)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Blocks) != 6 {
		t.Fatalf("GPU materialized %d, want 6", len(rep.Blocks))
	}
	cpuEnc.SetMaterialize(5)
	rep, err = cpuEnc.EncodeBlocks(seg, 16, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Blocks) != 5 {
		t.Fatalf("CPU materialized %d, want 5", len(rep.Blocks))
	}

	comb := NewCombinedEncoder(gpuEnc, cpuEnc)
	comb.SetMaterialize(p.BlockCount + 1)
	rep, err = comb.EncodeBlocks(seg, 64, 33)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Blocks) < p.BlockCount {
		t.Fatalf("combined materialized %d, want ≥ %d", len(rep.Blocks), p.BlockCount)
	}

	grp, err := NewEngineGroup(gpuEnc, cpuEnc)
	if err != nil {
		t.Fatal(err)
	}
	grp.SetMaterialize(4)
	rep, err = grp.EncodeBlocks(seg, 32, 34)
	if err != nil {
		t.Fatal(err)
	}
	// Each member materializes up to 4 of its proportional share (the slow
	// member may get fewer blocks than that).
	if len(rep.Blocks) < 5 || len(rep.Blocks) > 8 {
		t.Fatalf("group materialized %d, want 5–8", len(rep.Blocks))
	}
}

func TestScenarioStringAndEdges(t *testing.T) {
	s := DefaultStreamScenario()
	if s.String() == "" {
		t.Fatal("empty scenario string")
	}
	zero := StreamScenario{}
	if zero.PeersByCompute(100) != 0 || zero.PeersByNetwork() != 0 || zero.NICsSaturated(1) != 0 {
		t.Fatal("zero scenario should report zero capacities")
	}
	if zero.GPUSegmentCapacity(1<<20) != 0 {
		t.Fatal("zero scenario segment capacity")
	}
}

// TestMultiNICScenario: doubling the NICs doubles the network-bound peers.
func TestMultiNICScenario(t *testing.T) {
	s := DefaultStreamScenario()
	one := s.PeersByNetwork()
	s.NICCount = 2
	if two := s.PeersByNetwork(); two != 2*one {
		t.Fatalf("2 NICs carry %d peers, want %d", two, 2*one)
	}
	// 294 MB/s saturates ≈2.35 GigE interfaces, so two NICs still bind;
	// with three the engine becomes the constraint again.
	if s.PeersServed(294) != s.PeersByNetwork() {
		t.Error("two NICs should still be the binding constraint at 294 MB/s")
	}
	s.NICCount = 3
	if s.PeersServed(294) != s.PeersByCompute(294) {
		t.Error("three NICs should make 294 MB/s compute-bound")
	}
}
