package gf256

import (
	"fmt"
	"math/rand"
	"testing"
)

// Differential coverage for the GF(2) XOR kernels of the systematic fast
// path, through the same harness as the GF(2^8) kernels (bulk_test.go): the
// dispatched rung and the portable kernel against a byte loop, over lengths
// 0–257 and 4095–4097 at every misalignment.

func TestXorSliceMatchesReference(t *testing.T) {
	shapeXor.sweep(t, 40, [][]byte{ones})
	// dst longer than src: only the src prefix may change.
	rng := rand.New(rand.NewSource(40))
	for _, n := range kernelLengths() {
		src := randomBytes(rng, n)
		long := append(randomBytes(rng, n), 0x5A, 0x5A)
		want := append([]byte(nil), long...)
		for i := range src {
			want[i] ^= src[i]
		}
		XorSlice(long, src)
		if string(long) != string(want) {
			t.Fatalf("XorSlice long-dst len %d: wrong prefix or wrote past len(src)", n)
		}
	}
}

func TestXorSliceSelfZeroes(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 31, 32, 33, 64, 129, 257} {
		row := randomBytes(rng, n)
		XorSlice(row, row)
		for i, v := range row {
			if v != 0 {
				t.Fatalf("XorSlice self len %d not zero at %d", n, i)
			}
		}
	}
}

func TestXorSlice4MatchesReference(t *testing.T) {
	shapeXor4.sweep(t, 42, [][]byte{ones})
}

// TestXorSlice4Aliased pins the fully-aliased contract: folding a row into
// itself four times is the identity (an even number of self-XORs), matching
// MulAddSlice4 with coefficients {1,1,1,1}.
func TestXorSlice4Aliased(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{0, 1, 9, 16, 17, 64, 257} {
		orig := randomBytes(rng, n)
		got := append([]byte(nil), orig...)
		XorSlice4(got, got, got, got, got)
		for i := range orig {
			if got[i] != orig[i] {
				t.Fatalf("aliased XorSlice4 len %d mismatch at %d", n, i)
			}
		}
		// Repeated sources cancel pairwise: dst ^= s ^ s ^ t ^ t is a no-op.
		s := randomBytes(rng, n)
		u := randomBytes(rng, n)
		got = append([]byte(nil), orig...)
		XorSlice4(got, s, s, u, u)
		for i := range orig {
			if got[i] != orig[i] {
				t.Fatalf("pairwise-cancel XorSlice4 len %d mismatch at %d", n, i)
			}
		}
	}
}

// TestXorMatchesMulAddUnitCoeff pins the fast path's core claim: XOR-only
// elimination is byte-identical to the GF(2^8) kernels at coefficient 1.
func TestXorMatchesMulAddUnitCoeff(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for _, n := range []int{1, 16, 63, 64, 257} {
		s1 := randomBytes(rng, n)
		s2 := randomBytes(rng, n)
		s3 := randomBytes(rng, n)
		s4 := randomBytes(rng, n)
		base := randomBytes(rng, n)

		viaMul := append([]byte(nil), base...)
		MulAddSlice(viaMul, s1, 1)
		viaXor := append([]byte(nil), base...)
		XorSlice(viaXor, s1)
		for i := range viaMul {
			if viaMul[i] != viaXor[i] {
				t.Fatalf("XorSlice vs MulAddSlice(c=1) len %d mismatch at %d", n, i)
			}
		}

		viaMul4 := append([]byte(nil), base...)
		MulAddSlice4(viaMul4, s1, s2, s3, s4, 1, 1, 1, 1)
		viaXor4 := append([]byte(nil), base...)
		XorSlice4(viaXor4, s1, s2, s3, s4)
		for i := range viaMul4 {
			if viaMul4[i] != viaXor4[i] {
				t.Fatalf("XorSlice4 vs MulAddSlice4(c=1…) len %d mismatch at %d", n, i)
			}
		}
	}
}

// FuzzXorKernels drives both XOR kernels with fuzzer-chosen lengths, offsets
// and content — odd tails, zero length, and aliased views over one backing
// array — against the byte-loop reference.
func FuzzXorKernels(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1}, uint8(1))
	f.Add([]byte{0xFF, 0x00, 0xA7, 3, 9, 2, 77, 31, 8, 16}, uint8(3))
	f.Add(make([]byte, 300), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		n := len(data) / 2
		src := data[:n]
		base := data[n : 2*n]

		want := append([]byte(nil), base...)
		for i := range want {
			want[i] ^= src[i]
		}
		got := append([]byte(nil), base...)
		XorSlice(got, src)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("XorSlice len %d mismatch at %d", n, i)
			}
		}

		// XorSlice4 with sources sliced at a fuzzed offset from one backing
		// array (full aliasing among sources is allowed; dst is separate).
		if n > 0 {
			o := int(off) % n
			s1, s2 := src, src[o:]
			s3, s4 := base, base[o:]
			w := min(len(s2), len(s4))
			want4 := make([]byte, w)
			for i := 0; i < w; i++ {
				want4[i] = got[i] ^ s1[i] ^ s2[i] ^ s3[i] ^ s4[i]
			}
			got4 := append([]byte(nil), got[:w]...)
			XorSlice4(got4, s1, s2, s3, s4)
			for i := range want4 {
				if got4[i] != want4[i] {
					t.Fatalf("XorSlice4 len %d off %d mismatch at %d", w, o, i)
				}
			}
		}
	})
}

// BenchmarkXorLadder measures the GF(2) kernels alongside the GF(2^8) ladder.
// As in BenchmarkMulAddLadder, fused rungs report source bytes processed per
// second, so the MB/s column is directly comparable: the xor4 rung is the
// GF(2) analogue of fused4.
func BenchmarkXorLadder(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	for _, k := range []int{16, 64, 1024, 4096} {
		s1 := randomBytes(rng, k)
		s2 := randomBytes(rng, k)
		s3 := randomBytes(rng, k)
		s4 := randomBytes(rng, k)
		dst := randomBytes(rng, k)
		b.Run(fmt.Sprintf("xor/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(k))
			for i := 0; i < b.N; i++ {
				XorSlice(dst, s1)
			}
		})
		b.Run(fmt.Sprintf("xor4/k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(4 * k))
			for i := 0; i < b.N; i++ {
				XorSlice4(dst, s1, s2, s3, s4)
			}
		})
	}
}
