// Package gf256 implements arithmetic over the finite field GF(2^8) used by
// random linear network coding.
//
// The field is Rijndael's: polynomial x^8 + x^4 + x^3 + x + 1 (0x11B) with
// generator 0x03. The package provides every multiplication strategy the
// paper evaluates — classic log/exp table lookups, the loop-based ("hand
// multiplication") form that vectorizes well, the preprocessed log-domain
// form used by the GPU table-based encoder, and the zero-remapped tables
// that enable branch-free (predicated) zero handling — plus high-throughput
// bulk row operations used by the host codec.
//
// Addition in GF(2^8) is XOR; subtraction is identical to addition.
package gf256

// Poly is the Rijndael reduction polynomial x^8+x^4+x^3+x+1.
const Poly = 0x11B

// Generator is a primitive element of the field under Poly.
const Generator = 0x03

// LogZero is the sentinel stored in the classic log table for the input 0,
// which has no logarithm. It matches the paper's 0xFF convention.
const LogZero = 0xFF

// tables bundles every lookup table derived from (Poly, Generator).
type tables struct {
	exp [512]byte // exp[i] = Generator^i for i in [0,255); doubled so exp[logX+logY] needs no mod
	log [256]byte // log[x] for x != 0; log[0] = LogZero

	// Zero-remapped tables (paper Sec. 5.1.3, "Table-based-3"): logR[0] = 0
	// and logR[x] = log[x]+1 otherwise, so a zero operand is detected by a
	// test against zero (free on a register load with predication). expR is
	// shifted to compensate: expR[i] = exp[i-2].
	logR [256]uint16
	expR [1024]byte

	// mul is the full 64 KiB product table, the fastest scalar path and the
	// source of per-coefficient row tables for bulk operations.
	mul [256][256]byte

	// nib holds the split-nibble form of every product row for the SIMD
	// kernels: nib[c][i] = c·i and nib[c][16+i] = c·(i<<4) for i in [0,16).
	// A byte product is then c·x = nib[c][x&15] ^ nib[c][16+(x>>4)] — two
	// 16-entry lookups, the shape a byte-shuffle instruction executes 32
	// lanes at a time.
	nib [256][32]byte

	inv [256]byte // multiplicative inverses; inv[0] = 0 by convention
}

var _tables = buildTables()

func buildTables() *tables {
	t := &tables{}
	x := byte(1)
	for i := 0; i < 255; i++ {
		t.exp[i] = x
		t.exp[i+255] = x
		t.log[x] = byte(i)
		x = mulSlow(x, Generator)
	}
	// Positions 510 and 511 are never produced by logX+logY (max 254+254)
	// but keep the table total and deterministic.
	t.exp[510] = t.exp[0]
	t.exp[511] = t.exp[1]
	t.log[0] = LogZero

	for v := 0; v < 256; v++ {
		if v == 0 {
			t.logR[v] = 0
		} else {
			t.logR[v] = uint16(t.log[v]) + 1
		}
	}
	for i := 2; i < len(t.expR); i++ {
		t.expR[i] = t.exp[(i-2)%255]
	}

	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			t.mul[a][b] = mulSlow(byte(a), byte(b))
		}
		for i := 0; i < 16; i++ {
			t.nib[a][i] = t.mul[a][i]
			t.nib[a][16+i] = t.mul[a][i<<4]
		}
	}
	for a := 1; a < 256; a++ {
		t.inv[a] = t.exp[255-int(t.log[a])]
	}
	return t
}

// mulSlow is the reference carry-less multiply with reduction by Poly. It is
// used only to build tables and as the oracle in tests.
func mulSlow(a, b byte) byte {
	var p uint16
	aa, bb := uint16(a), uint16(b)
	for i := 0; i < 8; i++ {
		if bb&1 != 0 {
			p ^= aa
		}
		bb >>= 1
		aa <<= 1
		if aa&0x100 != 0 {
			aa ^= Poly
		}
	}
	return byte(p)
}

// Add returns a + b in GF(2^8). Subtraction is the same operation.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a·b using the classic three-lookup log/exp method (paper
// Fig. 1). This is the baseline table-based multiplication.
func Mul(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return _tables.exp[int(_tables.log[a])+int(_tables.log[b])]
}

// MulTable returns a·b via the full 64 KiB product table — the fastest
// scalar path on hosts with large caches.
func MulTable(a, b byte) byte { return _tables.mul[a][b] }

// MulLoop returns a·b using the loop-based "hand multiplication" in
// Rijndael's field (paper Sec. 4.1 / Fig. 3 of the Nuclei paper). It is the
// form that maps onto SIMD lanes and GPU words.
func MulLoop(a, b byte) byte { return mulSlow(a, b) }

// LoopIterations reports how many iterations the loop-based multiplication
// executes for coefficient c: the bit length of c (zero needs none). The GPU
// cost model charges cycles from this data-dependent count; it averages ≈7
// over uniformly random bytes, matching the paper.
func LoopIterations(c byte) int {
	n := 0
	for c != 0 {
		n++
		c >>= 1
	}
	return n
}

// Log returns the discrete logarithm of x base Generator, with ok=false for
// x = 0 (whose table entry is the LogZero sentinel).
func Log(x byte) (l byte, ok bool) {
	if x == 0 {
		return LogZero, false
	}
	return _tables.log[x], true
}

// Exp returns Generator^i for any non-negative i.
func Exp(i int) byte { return _tables.exp[i%255] }

// Inv returns the multiplicative inverse of a. Inv(0) returns 0; callers
// must not rely on it as an inverse.
func Inv(a byte) byte { return _tables.inv[a] }

// Div returns a/b. Division by zero returns 0; callers validate b upstream
// (the decoder only divides by pivots it has verified to be non-zero).
func Div(a, b byte) byte {
	if a == 0 || b == 0 {
		return 0
	}
	return _tables.exp[int(_tables.log[a])+255-int(_tables.log[b])]
}

// ToLog transforms src into the logarithmic domain in dst using the LogZero
// sentinel for zeros (paper Sec. 5.1.2, preprocessing step 1/2). dst and src
// must have the same length and may alias.
func ToLog(dst, src []byte) {
	lt := &_tables.log
	for i, v := range src {
		dst[i] = lt[v]
	}
}

// FromLog maps a log-domain byte back to its field value (sentinel → 0).
func FromLog(l byte) byte {
	if l == LogZero {
		return 0
	}
	return _tables.exp[l]
}

// MulPre multiplies two operands that are already in the logarithmic domain
// (paper Fig. 5). Zero operands are detected via the LogZero sentinel.
func MulPre(logX, logY byte) byte {
	if logX == LogZero || logY == LogZero {
		return 0
	}
	return _tables.exp[int(logX)+int(logY)]
}

// ToLogRemapped transforms src into the zero-remapped log domain used by the
// Table-based-3 scheme: zero maps to 0 so the zero test folds into a
// predicated register load. Values are uint16 because logs are shifted by 1.
func ToLogRemapped(dst []uint16, src []byte) {
	lt := &_tables.logR
	for i, v := range src {
		dst[i] = lt[v]
	}
}

// MulPreRemapped multiplies two zero-remapped log-domain operands.
func MulPreRemapped(logX, logY uint16) byte {
	if logX == 0 || logY == 0 {
		return 0
	}
	return _tables.expR[int(logX)+int(logY)]
}

// ExpRemapped exposes the shifted exponential table entry used by the GPU
// kernels that model texture and replicated-table accesses.
func ExpRemapped(idx int) byte { return _tables.expR[idx] }

// MulRow returns the 256-entry product row for coefficient c, i.e.
// MulRow(c)[x] == c·x. The returned slice aliases internal storage and must
// not be modified.
func MulRow(c byte) *[256]byte { return &_tables.mul[c] }
