package gf256

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddIsXor(t *testing.T) {
	if got := Add(0x57, 0x83); got != 0x57^0x83 {
		t.Fatalf("Add(0x57,0x83) = %#x, want %#x", got, 0x57^0x83)
	}
}

// TestKnownProducts pins Rijndael-field products from the AES literature.
func TestKnownProducts(t *testing.T) {
	cases := []struct {
		a, b, want byte
	}{
		{0x57, 0x83, 0xC1},
		{0x57, 0x13, 0xFE},
		{0x02, 0x80, 0x1B},
		{0x03, 0x01, 0x03},
		{0x00, 0xFF, 0x00},
		{0xFF, 0x00, 0x00},
		{0x01, 0xAB, 0xAB},
		{0x53, 0xCA, 0x01}, // 0x53 and 0xCA are inverses in 0x11B
	}
	for _, tc := range cases {
		if got := Mul(tc.a, tc.b); got != tc.want {
			t.Errorf("Mul(%#x,%#x) = %#x, want %#x", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestMulVariantsAgreeExhaustive checks all 65536 products across every
// multiplication strategy.
func TestMulVariantsAgreeExhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			x, y := byte(a), byte(b)
			want := mulSlow(x, y)
			if got := Mul(x, y); got != want {
				t.Fatalf("Mul(%#x,%#x) = %#x, want %#x", x, y, got, want)
			}
			if got := MulTable(x, y); got != want {
				t.Fatalf("MulTable(%#x,%#x) = %#x, want %#x", x, y, got, want)
			}
			if got := MulLoop(x, y); got != want {
				t.Fatalf("MulLoop(%#x,%#x) = %#x, want %#x", x, y, got, want)
			}
			lx, ly := _tables.log[x], _tables.log[y]
			if x == 0 {
				lx = LogZero
			}
			if y == 0 {
				ly = LogZero
			}
			if got := MulPre(lx, ly); got != want {
				t.Fatalf("MulPre(log %#x, log %#x) = %#x, want %#x", x, y, got, want)
			}
			if got := MulPreRemapped(_tables.logR[x], _tables.logR[y]); got != want {
				t.Fatalf("MulPreRemapped(%#x,%#x) = %#x, want %#x", x, y, got, want)
			}
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	cfg := &quick.Config{MaxCount: 3000}
	t.Run("commutativity", func(t *testing.T) {
		f := func(a, b byte) bool { return Mul(a, b) == Mul(b, a) }
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("associativity", func(t *testing.T) {
		f := func(a, b, c byte) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("distributivity", func(t *testing.T) {
		f := func(a, b, c byte) bool { return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c)) }
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("identity", func(t *testing.T) {
		f := func(a byte) bool { return Mul(a, 1) == a && Add(a, 0) == a }
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("additive inverse", func(t *testing.T) {
		f := func(a byte) bool { return Add(a, a) == 0 }
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("multiplicative inverse", func(t *testing.T) {
		f := func(a byte) bool {
			if a == 0 {
				return Inv(0) == 0
			}
			return Mul(a, Inv(a)) == 1
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
	t.Run("division round trip", func(t *testing.T) {
		f := func(a, b byte) bool {
			if b == 0 {
				return true
			}
			return Mul(Div(a, b), b) == a
		}
		if err := quick.Check(f, cfg); err != nil {
			t.Error(err)
		}
	})
}

func TestGeneratorIsPrimitive(t *testing.T) {
	seen := make(map[byte]bool, 255)
	x := byte(1)
	for i := 0; i < 255; i++ {
		if seen[x] {
			t.Fatalf("generator %#x cycles after %d steps", byte(Generator), i)
		}
		seen[x] = true
		x = mulSlow(x, Generator)
	}
	if x != 1 {
		t.Fatalf("generator order is not 255 (g^255 = %#x)", x)
	}
	if len(seen) != 255 {
		t.Fatalf("generator visits %d elements, want 255", len(seen))
	}
}

func TestLogExpRoundTrip(t *testing.T) {
	for v := 1; v < 256; v++ {
		l, ok := Log(byte(v))
		if !ok {
			t.Fatalf("Log(%#x) not ok", v)
		}
		if got := Exp(int(l)); got != byte(v) {
			t.Fatalf("Exp(Log(%#x)) = %#x", v, got)
		}
	}
	if _, ok := Log(0); ok {
		t.Fatal("Log(0) reported ok")
	}
}

func TestToLogFromLog(t *testing.T) {
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]byte, len(src))
	ToLog(dst, src)
	for i, l := range dst {
		if got := FromLog(l); got != src[i] {
			t.Fatalf("FromLog(ToLog(%#x)) = %#x", src[i], got)
		}
	}
	// In-place transform must also work.
	inPlace := append([]byte(nil), src...)
	ToLog(inPlace, inPlace)
	for i := range inPlace {
		if inPlace[i] != dst[i] {
			t.Fatalf("in-place ToLog diverges at %d", i)
		}
	}
}

func TestToLogRemapped(t *testing.T) {
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i)
	}
	dst := make([]uint16, len(src))
	ToLogRemapped(dst, src)
	if dst[0] != 0 {
		t.Fatalf("remapped log of 0 = %d, want 0", dst[0])
	}
	for i := 1; i < len(dst); i++ {
		if dst[i] == 0 {
			t.Fatalf("remapped log of %#x = 0, clashes with zero sentinel", src[i])
		}
	}
}

func TestLoopIterations(t *testing.T) {
	cases := []struct {
		c    byte
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {0x80, 8}, {0xFF, 8}, {0x10, 5}}
	for _, tc := range cases {
		if got := LoopIterations(tc.c); got != tc.want {
			t.Errorf("LoopIterations(%#x) = %d, want %d", tc.c, got, tc.want)
		}
	}
	// The paper's ≈7 average over random bytes.
	total := 0
	for c := 0; c < 256; c++ {
		total += LoopIterations(byte(c))
	}
	avg := float64(total) / 256
	if avg < 6.9 || avg > 7.1 {
		t.Errorf("mean loop iterations = %.3f, want ≈7", avg)
	}
}

func randomBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestAddSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 7, 8, 9, 63, 64, 100, 4096} {
		a := randomBytes(rng, n)
		b := randomBytes(rng, n)
		want := make([]byte, n)
		for i := range want {
			want[i] = a[i] ^ b[i]
		}
		got := append([]byte(nil), a...)
		AddSlice(got, b)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("AddSlice len %d mismatch at %d", n, i)
			}
		}
	}
}

func TestMulAddSliceStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lengths := []int{0, 1, 5, 8, 15, 16, 63, 64, 65, 511, 4096}
	coeffs := []byte{0, 1, 2, 3, 0x53, 0x80, 0xFF}
	for _, n := range lengths {
		for _, c := range coeffs {
			src := randomBytes(rng, n)
			base := randomBytes(rng, n)

			want := append([]byte(nil), base...)
			for i := range want {
				want[i] ^= mulSlow(src[i], c)
			}

			for name, fn := range map[string]func(dst, src []byte, c byte){
				"dispatched": MulAddSlice,
				"portable":   mulAddPortable,
				"scalar":     mulAddTableScalar,
			} {
				got := append([]byte(nil), base...)
				fn(got, src, c)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s len %d c %#x mismatch at %d: got %#x want %#x",
							name, n, c, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestMulSliceAndScale(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := randomBytes(rng, 333)
	for _, c := range []byte{0, 1, 0x1D, 0xFF} {
		dst := make([]byte, len(src))
		MulSlice(dst, src, c)
		for i := range src {
			if want := mulSlow(src[i], c); dst[i] != want {
				t.Fatalf("MulSlice c=%#x at %d: got %#x want %#x", c, i, dst[i], want)
			}
		}
		scaled := append([]byte(nil), src...)
		ScaleSlice(scaled, c)
		for i := range scaled {
			if scaled[i] != dst[i] {
				t.Fatalf("ScaleSlice diverges from MulSlice at %d", i)
			}
		}
	}
}

func TestDotProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, k = 16, 97
	rows := make([][]byte, n)
	for i := range rows {
		rows[i] = randomBytes(rng, k)
	}
	coeffs := randomBytes(rng, n)
	out := make([]byte, k)
	DotProduct(out, coeffs, rows)
	for j := 0; j < k; j++ {
		var want byte
		for i := 0; i < n; i++ {
			want ^= mulSlow(coeffs[i], rows[i][j])
		}
		if out[j] != want {
			t.Fatalf("DotProduct col %d: got %#x want %#x", j, out[j], want)
		}
	}
}

// TestMulRowAliases verifies the product-row accessor matches MulTable.
func TestMulRowAliases(t *testing.T) {
	for c := 0; c < 256; c++ {
		row := MulRow(byte(c))
		for x := 0; x < 256; x++ {
			if row[x] != MulTable(byte(c), byte(x)) {
				t.Fatalf("MulRow(%#x)[%#x] mismatch", c, x)
			}
		}
	}
}

func TestDistributivityOverSlices(t *testing.T) {
	// (a+b)·row == a·row + b·row, checked with the bulk primitives.
	f := func(a, b byte, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := randomBytes(rng, 128)
		lhs := make([]byte, len(src))
		MulAddSlice(lhs, src, a^b)
		rhs := make([]byte, len(src))
		MulAddSlice(rhs, src, a)
		MulAddSlice(rhs, src, b)
		for i := range lhs {
			if lhs[i] != rhs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGF256MulVariants(b *testing.B) {
	variants := []struct {
		name string
		fn   func(a, b byte) byte
	}{
		{"LogExp", Mul},
		{"FullTable", MulTable},
		{"Loop", MulLoop},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var acc byte
			for i := 0; i < b.N; i++ {
				acc ^= v.fn(byte(i), byte(i>>8)|1)
			}
			_ = acc
		})
	}
}
