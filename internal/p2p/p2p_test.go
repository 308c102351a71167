package p2p

import (
	"testing"

	"extremenc/internal/rlnc"
)

func baseConfig(mode Mode) Config {
	return Config{
		Params:           rlnc.Params{BlockCount: 16, BlockSize: 256},
		Peers:            12,
		Neighbors:        3,
		LinkBandwidthBps: 8e6, // 1 MB/s
		LinkLatency:      0.005,
		Mode:             mode,
		Seed:             42,
		MaxSimTime:       300,
	}
}

func TestValidation(t *testing.T) {
	good := baseConfig(ModeRLNC)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Config){
		func(c *Config) { c.Peers = 0 },
		func(c *Config) { c.Neighbors = 0 },
		func(c *Config) { c.LinkBandwidthBps = 0 },
		func(c *Config) { c.Mode = Mode(9) },
		func(c *Config) { c.Params.BlockCount = 0 },
	}
	for i, mutate := range cases {
		cfg := baseConfig(ModeRLNC)
		mutate(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRLNCSessionCompletes(t *testing.T) {
	res, err := Run(baseConfig(ModeRLNC))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Peers {
		t.Fatalf("completed %d of %d peers", res.Completed, res.Peers)
	}
	if res.MaxFinish <= 0 || res.MeanFinish <= 0 || res.MeanFinish > res.MaxFinish {
		t.Fatalf("finish times: mean %v max %v", res.MeanFinish, res.MaxFinish)
	}
	if res.BlocksSent == 0 || res.BytesSent == 0 {
		t.Fatal("no traffic recorded")
	}
	// Network coding ships very little redundancy.
	if res.Overhead > 1.6 {
		t.Errorf("RLNC overhead = %.2f, want near 1", res.Overhead)
	}
}

func TestAllModesComplete(t *testing.T) {
	for _, mode := range []Mode{ModeRLNC, ModeForward, ModeUncoded} {
		cfg := baseConfig(mode)
		cfg.MaxSimTime = 2000
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Completed == 0 {
			t.Errorf("%v: no peers completed", mode)
		}
	}
}

// TestCodingBeatsForwarding reproduces the motivating comparison: with
// recoding at the peers, the same topology finishes with less redundancy
// (and typically sooner) than verbatim forwarding of coded or plain blocks.
func TestCodingBeatsForwarding(t *testing.T) {
	run := func(mode Mode) *Result {
		cfg := baseConfig(mode)
		cfg.MaxSimTime = 5000
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed < res.Peers {
			t.Fatalf("%v completed only %d/%d", mode, res.Completed, res.Peers)
		}
		return res
	}
	rlncRes := run(ModeRLNC)
	fwd := run(ModeForward)
	unc := run(ModeUncoded)

	if rlncRes.Overhead >= fwd.Overhead {
		t.Errorf("RLNC overhead %.2f not below forwarding %.2f", rlncRes.Overhead, fwd.Overhead)
	}
	if rlncRes.Overhead >= unc.Overhead {
		t.Errorf("RLNC overhead %.2f not below uncoded %.2f", rlncRes.Overhead, unc.Overhead)
	}
	if rlncRes.MaxFinish > 1.5*fwd.MaxFinish {
		t.Errorf("RLNC finish %.1f much worse than forwarding %.1f", rlncRes.MaxFinish, fwd.MaxFinish)
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(baseConfig(ModeRLNC))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(ModeRLNC))
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxFinish != b.MaxFinish || a.BlocksSent != b.BlocksSent || a.Overhead != b.Overhead {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	c := baseConfig(ModeRLNC)
	c.Seed = 43
	cRes, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	if cRes.BlocksSent == a.BlocksSent && cRes.MaxFinish == a.MaxFinish {
		t.Log("warning: different seeds produced identical results (possible but unlikely)")
	}
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{ModeRLNC, ModeForward, ModeUncoded, Mode(9)} {
		if m.String() == "" {
			t.Fatal("empty mode name")
		}
	}
}

func TestScalesToMorePeers(t *testing.T) {
	cfg := baseConfig(ModeRLNC)
	cfg.Peers = 40
	cfg.Neighbors = 4
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 40 {
		t.Fatalf("completed %d/40", res.Completed)
	}
}

// TestLossyNetworkStillCompletes: RLNC needs no retransmission protocol —
// lost blocks are replaced by later (equally useful) ones.
func TestLossyNetworkStillCompletes(t *testing.T) {
	cfg := baseConfig(ModeRLNC)
	cfg.LossRate = 0.3
	cfg.MaxSimTime = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Peers {
		t.Fatalf("completed %d/%d under 30%% loss", res.Completed, res.Peers)
	}
	if res.BlocksDropped == 0 {
		t.Fatal("no drops recorded at 30% loss")
	}
	lossless, err := Run(baseConfig(ModeRLNC))
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxFinish <= lossless.MaxFinish {
		t.Error("loss should slow completion")
	}
}

func TestLossRateValidation(t *testing.T) {
	cfg := baseConfig(ModeRLNC)
	cfg.LossRate = -0.1
	if _, err := Run(cfg); err == nil {
		t.Fatal("negative loss rate accepted")
	}
	cfg.LossRate = 1.0
	if _, err := Run(cfg); err == nil {
		t.Fatal("loss rate 1.0 accepted")
	}
}

// TestMultiSegmentSession: a 5-segment object distributes fully, and the
// collected sample sets feed an offline batch decode.
func TestMultiSegmentSession(t *testing.T) {
	cfg := baseConfig(ModeRLNC)
	cfg.Segments = 5
	cfg.CollectSets = true
	cfg.MaxSimTime = 2000
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != res.Peers {
		t.Fatalf("completed %d/%d with 5 segments", res.Completed, res.Peers)
	}
	if len(res.SampleSets) != 5 {
		t.Fatalf("sample sets = %d", len(res.SampleSets))
	}
	// The collected sets are an offline decode workload: each must span its
	// segment.
	for sg, set := range res.SampleSets {
		if len(set) != cfg.Params.BlockCount {
			t.Fatalf("segment %d: %d innovative blocks, want %d", sg, len(set), cfg.Params.BlockCount)
		}
		if _, err := rlnc.DecodeTwoStage(cfg.Params, set); err != nil {
			t.Fatalf("segment %d offline decode: %v", sg, err)
		}
	}
	// Overhead normalizes by segments.
	if res.Overhead > 1.8 {
		t.Errorf("multi-segment overhead = %.2f", res.Overhead)
	}
	if _, err := Run(Config{Params: cfg.Params, Peers: 1, Neighbors: 1,
		LinkBandwidthBps: 1, Segments: -1, Mode: ModeRLNC}); err == nil {
		t.Fatal("negative segments accepted")
	}
}
