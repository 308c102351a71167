//go:build !amd64 || purego

package gf256

// No SIMD rung on this build: other architectures, or amd64 with the purego
// tag (a build tag CI uses to test the portable kernels on a SIMD runner —
// not a runtime switch). Every *Vec wrapper handles nothing and the portable
// kernels of bulk.go do all the work.

const active = rungPortable

func rungs() []rung { return []rung{rungPortable} }

func (r rung) vecLen(n int) int { return 0 }

func mulAddVec(r rung, dst, src []byte, c byte) int                          { return 0 }
func mulVec(r rung, dst, src []byte, c byte) int                             { return 0 }
func mulAdd2Vec(r rung, dst, s1, s2 []byte, c1, c2 byte) int                 { return 0 }
func mulAdd4Vec(r rung, dst, s1, s2, s3, s4 []byte, c1, c2, c3, c4 byte) int { return 0 }
func mulAdd4x2Vec(r rung, d1, d2, s1, s2, s3, s4 []byte, ca, cb [4]byte) int { return 0 }
func xorVec(r rung, dst, src []byte) int                                     { return 0 }
func xor4Vec(r rung, dst, s1, s2, s3, s4 []byte) int                         { return 0 }
