package rlnc

import (
	"encoding/binary"
	"fmt"
)

// Counter records: the coefficient-overhead fix of Sec. 4.3 on the wire. A
// dense coefficient vector costs n bytes per packet (n/k of the link — 12.5 %
// at n=32, k=256). When the source generates the block, the vector can be a
// stateless function F(key, segment, index) of a key the session declares
// once and a u32 index the record carries, so the receiver regenerates it and
// the record carries 4 bytes instead of n. A recombination is data-dependent
// and cannot be written as an index, so recoded blocks stay XNC1.
//
// Wire format (all integers big-endian):
//
//	offset  size  field
//	0       4     magic "XNC3"
//	4       4     segment ID
//	8       4     block count n
//	12      4     block size k
//	16      4     record index
//	20      k     coded payload
//	20+k    4     CRC-32 (IEEE) over everything above
const (
	counterWireMagic = "XNC3"
	counterIndexLen  = 4
)

// CounterWireSize returns the marshaled length of a counter record for p.
func CounterWireSize(p Params) int {
	return wireHeaderLen + counterIndexLen + p.BlockSize + wireTrailerLen
}

// CounterCoeffs writes F(key, segID, index) into dst: len(dst) coefficients,
// each on [1, 255], the vector a counter record of that segment and index
// denotes under key. Distinct (segID, index) pairs give independent vectors
// under one key. The cost is fixed by len(dst) alone — there is no rejection
// loop a chosen key could prolong.
func CounterCoeffs(dst []byte, key uint64, segID, index uint32) {
	fillCounter(dst, key^(uint64(segID)<<32|uint64(index)))
}

// fillCounter fills dst from the splitmix64 sequence that starts at the mixed
// state x, four coefficients per 64-bit word, and returns how many words it
// drew: ceil(len(dst)/4), whatever x is. Each coefficient maps a 16-bit lane
// onto [1, 255] by multiply-shift, so zero never appears and nothing is
// redrawn; one value of the 255 gets 258 of the 65,536 lane values and every
// other 257.
func fillCounter(dst []byte, x uint64) (words int) {
	const gamma = 0x9E3779B97F4A7C15
	s := mix64(x)
	for ; len(dst) >= 4; dst = dst[4:] {
		s += gamma
		z := mix64(s)
		dst[0], dst[1], dst[2], dst[3] = lane(z), lane(z>>16), lane(z>>32), lane(z>>48)
		words++
	}
	if len(dst) > 0 {
		z := mix64(s + gamma)
		for i := range dst {
			dst[i] = lane(z >> (16 * i))
		}
		words++
	}
	return words
}

// mix64 is splitmix64's output function, a bijection on 64-bit words.
func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// lane maps the low 16 bits of z onto [1, 255].
func lane(z uint64) byte { return byte(1 + uint32(uint16(z))*255>>16) }

// PutCounterHeader writes the 20-byte header of a segment-segID counter record
// with the given index at p into rec, which must be CounterWireSize(p) long,
// and returns the record's k payload bytes for the producer to fill in place
// — the encode of CounterCoeffs(key, segID, index) — before SealWire.
func PutCounterHeader(rec []byte, segID, index uint32, p Params) (payload []byte) {
	row := PutWireHeader(rec, segID, p)
	copy(rec, counterWireMagic) // the XNC1 header but for its magic
	binary.BigEndian.PutUint32(row, index)
	return row[counterIndexLen:]
}

// UnmarshalCounter decodes a counter record of a session or container that
// declared key and shape want, validating magic, lengths and checksum, and
// returns its index. A record of another shape is ErrBlockShape: the key means
// nothing outside what declared it, and a hostile n must not size the vector.
// The coefficient vector is regenerated straight into b.Coeffs and the payload
// copied into b.Payload, both reusing their capacity, so a reader that keeps
// one block allocates nothing per record.
func (b *CodedBlock) UnmarshalCounter(data []byte, key uint64, want Params) (index uint32, err error) {
	seg, p, row, err := openWire(data, counterWireMagic)
	if err != nil {
		return 0, err
	}
	if p != want {
		return 0, fmt.Errorf("%w: counter record %v, want %v", ErrBlockShape, p, want)
	}
	index = binary.BigEndian.Uint32(row)
	b.SegmentID = seg
	if cap(b.Coeffs) < p.BlockCount {
		b.Coeffs = make([]byte, p.BlockCount)
	}
	b.Coeffs = b.Coeffs[:p.BlockCount]
	CounterCoeffs(b.Coeffs, key, seg, index)
	b.Payload = append(b.Payload[:0], row[counterIndexLen:]...)
	return index, nil
}

// CounterRecord builds one whole counter record of seg under key: the file
// container's producer, and the reference the in-place producers are held to.
func CounterRecord(seg *Segment, key uint64, index uint32) []byte {
	p := seg.params
	rec := make([]byte, CounterWireSize(p))
	coeffs := make([]byte, p.BlockCount)
	CounterCoeffs(coeffs, key, seg.id, index)
	EncodeInto(PutCounterHeader(rec, seg.id, index, p), seg, coeffs)
	SealWire(rec)
	return rec
}
