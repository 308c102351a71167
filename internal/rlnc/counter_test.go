package rlnc

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// TestCounterCoeffsGolden pins F's output bytes: a counter record's vector is
// a wire contract between a server and every client that will ever read it,
// so F must not change by a bit on any build. The digest covers vectors of
// every length from 1 to 67 (both tail shapes of the four-lane fill) over
// keys, segments and indices at their extremes.
func TestCounterCoeffsGolden(t *testing.T) {
	h := sha256.New()
	for _, key := range []uint64{0, 1, 0x0123456789ABCDEF, math.MaxUint64} {
		for _, seg := range []uint32{0, 7, math.MaxUint32} {
			for _, index := range []uint32{0, 1, 1 << 31, math.MaxUint32} {
				for n := 1; n <= 67; n++ {
					dst := make([]byte, n)
					CounterCoeffs(dst, key, seg, index)
					h.Write(dst)
				}
			}
		}
	}
	const want = "b5e09a89967ef336cd449f7bed6d74d499b1b2ef253d4ee63477fd8f4ad26aec"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("F's output changed: digest %s, want %s", got, want)
	}
	first := make([]byte, 8)
	CounterCoeffs(first, 0, 0, 0)
	t.Logf("F(0, 0, 0)[:8] = % x", first)
}

// TestCounterCoeffsUniform: over a million coefficients from consecutive
// indices of a few segments, zero never appears and the 255 values are
// uniform by a χ² test. The one value the multiply-shift map favours (258
// lane values of 65,536 against 257) is 0.4 % over its share, far below
// what the test can see.
func TestCounterCoeffsUniform(t *testing.T) {
	var counts [256]int
	dst := make([]byte, 128)
	total := 0
	for seg := uint32(0); seg < 4; seg++ {
		for index := uint32(0); index < 2048; index++ {
			CounterCoeffs(dst, 0x5EED, seg, index)
			for _, c := range dst {
				counts[c]++
			}
			total += len(dst)
		}
	}
	if counts[0] != 0 {
		t.Fatalf("%d zero coefficients in %d", counts[0], total)
	}
	expect := float64(total) / 255
	chi2 := 0.0
	for _, c := range counts[1:] {
		d := float64(c) - expect
		chi2 += d * d / expect
	}
	// 254 degrees of freedom: mean 254, σ ≈ 22.5; 360 is p ≈ 1e-5.
	if chi2 > 360 {
		t.Fatalf("χ² = %.1f over %d coefficients: not uniform on [1, 255]", chi2, total)
	}
	t.Logf("χ² = %.1f (254 d.o.f.) over %d coefficients", chi2, total)
}

// TestCounterCoeffsBoundedWork: whatever key a hostile session header
// declares, a vector of n coefficients draws exactly ⌈n/4⌉ generator words —
// four coefficients a word, none redrawn — and none is zero. The keys are the
// adversarial ones (0, which starts segment 0, index 0 at state 0, a fixed
// point of mix64; all ones; the generator's own gamma) and ten thousand
// random ones, at every length up to 1,024 and at 1,024 itself.
func TestCounterCoeffsBoundedWork(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := []uint64{0, math.MaxUint64, 0x9E3779B97F4A7C15}
	for range 10000 {
		keys = append(keys, rng.Uint64())
	}
	dst, want := make([]byte, 1024), make([]byte, 1024)
	for i, key := range keys {
		for _, n := range []int{1 + i%1024, 1024} {
			if words := fillCounter(dst[:n], key); words != (n+3)/4 {
				t.Fatalf("key %#x: %d words for %d coefficients, want %d", key, words, n, (n+3)/4)
			}
			if bytes.IndexByte(dst[:n], 0) >= 0 {
				t.Fatalf("key %#x: zero coefficient", key)
			}
		}
		CounterCoeffs(want, key, 0, 0)
		if !bytes.Equal(dst, want) {
			t.Fatal("CounterCoeffs is not fillCounter over the combined state")
		}
	}
}

// TestCounterRankDifferential: at n=32, over 10,000 segments, the mean number
// of records a decoder needs for full rank is the same with F's vectors as
// with DrawCoeffs' — n, plus one dependent record in about one segment of 255 —
// within the noise of the count. Only the coefficients are reduced: the
// payload is one byte.
func TestCounterRankDifferential(t *testing.T) {
	const n, segments = 32, 10000
	p := Params{BlockCount: n, BlockSize: 1}
	extra := func(next func(seg uint32, i int, dst []byte)) (sum, sumSq float64) {
		blk := &CodedBlock{Coeffs: make([]byte, n), Payload: make([]byte, 1)}
		for seg := uint32(0); seg < segments; seg++ {
			rc, err := NewRecoder(p)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for ; rc.Rank() < n; i++ {
				next(seg, i, blk.Coeffs)
				if err := rc.Add(blk); err != nil {
					t.Fatal(err)
				}
			}
			x := float64(i - n)
			sum, sumSq = sum+x, sumSq+x*x
		}
		return sum, sumSq
	}
	fSum, fSq := extra(func(seg uint32, i int, dst []byte) { CounterCoeffs(dst, 0xFEED, seg, uint32(i)) })
	rng := rand.New(rand.NewSource(2))
	dSum, dSq := extra(func(_ uint32, _ int, dst []byte) { DrawCoeffs(dst, rng) })
	// Each arm's extra count is a sum of rare events; its variance is
	// estimated from the arm itself, and the arms must agree within 4σ of
	// their difference (plus one record, for arms that both see almost none).
	sigma := math.Sqrt(fSq - fSum*fSum/segments + dSq - dSum*dSum/segments)
	if math.Abs(fSum-dSum) > 4*sigma+1 {
		t.Fatalf("extra records over %d segments: F %v, DrawCoeffs %v (σ of the difference %.1f)", segments, fSum, dSum, sigma)
	}
	// Over GF(2^8) a segment needs about n + 1/255 records.
	if fSum > segments*0.02 {
		t.Fatalf("F needed %v extra records over %d segments", fSum, segments)
	}
	t.Logf("extra records over %d segments at n=%d: F %v, DrawCoeffs %v (σ of the difference %.1f)", segments, n, fSum, dSum, sigma)
}
