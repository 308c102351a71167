//go:build !amd64 || purego

package gf256

// No SIMD rung on this build: other architectures, or amd64 with the purego
// tag (a build tag CI uses to test the portable kernels on an AVX2 runner —
// not a runtime switch). Every *Vec wrapper handles nothing and the portable
// kernels of bulk.go do all the work.

const useAVX2 = false

func mulAddVec(dst, src []byte, c byte) int                          { return 0 }
func mulVec(dst, src []byte, c byte) int                             { return 0 }
func mulAdd1x2Vec(d1, d2, src []byte, c1, c2 byte) int               { return 0 }
func mulAdd4x2Vec(d1, d2, s1, s2, s3, s4 []byte, ca, cb [4]byte) int { return 0 }
func xorVec(dst, src []byte) int                                     { return 0 }
func xor4Vec(dst, s1, s2, s3, s4 []byte) int                         { return 0 }
