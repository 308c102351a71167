// Package ncfile implements a network-coded file container: a payload is
// split into coding segments and stored (or transmitted) as self-contained
// coded-block records with per-record checksums. Because every record is a
// random linear combination, any sufficiently large subset of intact
// records reconstructs the file — dropped or corrupted records cost nothing
// but their redundancy. This is the bulk content-distribution usage of the
// paper's Sec. 2 (Avalanche) in single-file form, and the substrate of the
// ncfile command.
package ncfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand"

	"extremenc/internal/rlnc"
)

// Container format:
//
//	header:  magic "XNCF" | u32 version | u64 payload length |
//	         u32 n | u32 k | u32 segment count | [u64 key] | u32 CRC of the above
//	records: u32 record length | record bytes, repeated until EOF.
//
// A version 1 container holds XNC1 records (rlnc.CodedBlock), each carrying
// its n-byte coefficient vector. A version 2 container — a seeded one — adds
// the 8-byte key to the header and holds XNC3 counter records, whose
// coefficients the reader regenerates from the key, the record's segment and
// its u32 index: 4 bytes per record where version 1 spends n.
const (
	containerMagic = "XNCF"
	plainVersion   = 1
	seededVersion  = 2
	headerLen      = 4 + 4 + 8 + 4 + 4 + 4 + 4
	keyLen         = 8
)

// Container errors.
var (
	ErrBadHeader     = errors.New("ncfile: bad container header")
	ErrUnrecoverable = errors.New("ncfile: insufficient intact records to recover payload")
)

// Header describes a container.
type Header struct {
	Length   int64
	Params   rlnc.Params
	Segments int
	// Seeded marks a version 2 container of counter records under Key.
	Seeded bool
	Key    uint64
}

func (h Header) validate() error {
	if h.Length < 0 {
		return fmt.Errorf("%w: negative length", ErrBadHeader)
	}
	if err := h.Params.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	// The segment count is the one rlnc.Split makes of Length bytes: the
	// decoded object is that many segments, padding cut off.
	seg := int64(h.Params.SegmentSize())
	if want := max(1, h.Length/seg+min(1, h.Length%seg)); int64(h.Segments) != want {
		return fmt.Errorf("%w: %d bytes are %d segments of %v, not %d", ErrBadHeader, h.Length, want, h.Params, h.Segments)
	}
	return nil
}

func writeHeader(w io.Writer, h Header) error {
	buf := make([]byte, 0, headerLen+keyLen)
	buf = append(buf, containerMagic...)
	if h.Seeded {
		buf = binary.BigEndian.AppendUint32(buf, seededVersion)
	} else {
		buf = binary.BigEndian.AppendUint32(buf, plainVersion)
	}
	buf = binary.BigEndian.AppendUint64(buf, uint64(h.Length))
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.Params.BlockCount))
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.Params.BlockSize))
	buf = binary.BigEndian.AppendUint32(buf, uint32(h.Segments))
	if h.Seeded {
		buf = binary.BigEndian.AppendUint64(buf, h.Key)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

func readHeader(r io.Reader) (Header, error) {
	buf := make([]byte, headerLen+keyLen)
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return Header{}, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	if string(buf[:4]) != containerMagic {
		return Header{}, fmt.Errorf("%w: wrong magic", ErrBadHeader)
	}
	var h Header
	switch v := binary.BigEndian.Uint32(buf[4:]); v {
	case plainVersion:
		buf = buf[:headerLen]
	case seededVersion:
		h.Seeded = true
	default:
		return Header{}, fmt.Errorf("%w: unsupported version %d", ErrBadHeader, v)
	}
	if _, err := io.ReadFull(r, buf[8:]); err != nil {
		return Header{}, fmt.Errorf("%w: %v", ErrBadHeader, err)
	}
	body := buf[:len(buf)-4]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(buf[len(body):]) {
		return Header{}, fmt.Errorf("%w: checksum mismatch", ErrBadHeader)
	}
	h.Length = int64(binary.BigEndian.Uint64(buf[8:]))
	h.Params = rlnc.Params{
		BlockCount: int(binary.BigEndian.Uint32(buf[16:])),
		BlockSize:  int(binary.BigEndian.Uint32(buf[20:])),
	}
	h.Segments = int(binary.BigEndian.Uint32(buf[24:]))
	if h.Seeded {
		h.Key = binary.BigEndian.Uint64(buf[28:])
	}
	return h, h.validate()
}

func writeRecord(w io.Writer, rec []byte) error {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(rec)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err := w.Write(rec)
	return err
}

// readRecord returns the next raw record, read into buf's storage when it
// fits, or io.EOF at a clean end.
func readRecord(r io.Reader, buf []byte) ([]byte, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("ncfile: record length: %w", err)
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n == 0 || n > 64<<20 {
		return nil, fmt.Errorf("ncfile: implausible record length %d", n)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	rec := buf[:n]
	if _, err := io.ReadFull(r, rec); err != nil {
		return nil, fmt.Errorf("ncfile: record body: %w", err)
	}
	return rec, nil
}

// EncodeOptions tunes Encode.
type EncodeOptions struct {
	// Redundancy is coded blocks emitted per source block (≥ 1); the
	// default 1.15 tolerates ~13% record loss.
	Redundancy float64
	// Seeded writes a version 2 container: each record carries a 4-byte
	// index instead of its n-byte coefficient vector.
	Seeded bool
	// Seed drives the coefficient stream; a seeded container's key is Seed.
	Seed int64
}

// EncodeSummary reports an Encode run.
type EncodeSummary struct {
	Header       Header
	Records      int
	PayloadBytes int64
	RecordBytes  int64
}

// Encode reads the payload from r and writes a coded container to w.
func Encode(w io.Writer, r io.Reader, p rlnc.Params, opts EncodeOptions) (*EncodeSummary, error) {
	if opts.Redundancy == 0 {
		opts.Redundancy = 1.15
	}
	if opts.Redundancy < 1 {
		return nil, fmt.Errorf("ncfile: redundancy %.2f below 1", opts.Redundancy)
	}
	payload, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ncfile: read payload: %w", err)
	}
	obj, err := rlnc.Split(payload, p)
	if err != nil {
		return nil, err
	}
	h := Header{Length: int64(len(payload)), Params: p, Segments: len(obj.Segments), Seeded: opts.Seeded}
	if h.Seeded {
		h.Key = uint64(opts.Seed)
	}
	if err := writeHeader(w, h); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	perSegment := int(math.Ceil(float64(p.BlockCount) * opts.Redundancy))
	sum := &EncodeSummary{Header: h, PayloadBytes: int64(len(payload))}
	for _, seg := range obj.Segments {
		enc := rlnc.NewEncoder(seg, rng)
		for i := 0; i < perSegment; i++ {
			var rec []byte
			if h.Seeded {
				rec = rlnc.CounterRecord(seg, h.Key, uint32(i))
			} else if rec, err = enc.NextBlock().MarshalBinary(); err != nil {
				return nil, err
			}
			if err := writeRecord(w, rec); err != nil {
				return nil, err
			}
			sum.Records++
			sum.RecordBytes += int64(len(rec))
		}
	}
	return sum, nil
}

// DecodeSummary reports a Decode run.
type DecodeSummary struct {
	Header         Header
	Records        int
	CorruptRecords int
	Dependent      int
}

// Decode reads a coded container from r and writes the recovered payload to
// w. Corrupt records (failed checksums, another shape, a segment the header
// does not declare) are skipped; recovery succeeds as long as every segment
// reaches full rank. Every segment decodes in place into its window of one
// object buffer, which the first intact record allocates and w receives.
func Decode(w io.Writer, r io.Reader) (*DecodeSummary, error) {
	h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	p, size := h.Params, h.Params.SegmentSize()
	format := rlnc.RecordFormat{Params: p, Counter: h.Seeded, Key: h.Key}
	decoders := make(map[uint32]*rlnc.Decoder)
	var obj []byte
	sum := &DecodeSummary{Header: h}
	var blk rlnc.CodedBlock
	var rec []byte

	for {
		rec, err = readRecord(r, rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		sum.Records++
		if blk.ParseView(rec, format) != nil || blk.SegmentID >= uint32(h.Segments) {
			sum.CorruptRecords++
			continue
		}
		dec := decoders[blk.SegmentID]
		if dec == nil {
			if obj == nil {
				obj = make([]byte, h.Segments*size)
			}
			if dec, err = rlnc.NewDecoder(p); err != nil {
				return nil, err
			}
			s := int(blk.SegmentID) * size
			if err := dec.DecodeInto(obj[s : s+size]); err != nil {
				return nil, err
			}
			decoders[blk.SegmentID] = dec
		}
		if dec.Ready() {
			continue // segment already solved; skip elimination work
		}
		innovative, err := dec.AddBlock(&blk)
		if err != nil {
			return nil, err
		}
		if !innovative {
			sum.Dependent++
		}
	}

	for id := range uint32(h.Segments) {
		if dec := decoders[id]; dec == nil || !dec.Ready() {
			rank := 0
			if dec != nil {
				rank = dec.Rank()
			}
			return nil, fmt.Errorf("%w: segment %d at rank %d/%d", ErrUnrecoverable, id, rank, p.BlockCount)
		}
	}
	if _, err := w.Write(obj[:h.Length]); err != nil {
		return nil, err
	}
	return sum, nil
}

// CorruptOptions tunes Corrupt.
type CorruptOptions struct {
	DropRate float64 // probability a record is dropped entirely
	FlipRate float64 // probability a record gets one byte flipped
	Seed     int64
}

// CorruptSummary reports a Corrupt run.
type CorruptSummary struct {
	Records int
	Dropped int
	Flipped int
}

// Corrupt reads a container and writes a damaged copy — a deterministic
// lossy channel for demonstrations and failure-injection tests.
func Corrupt(w io.Writer, r io.Reader, opts CorruptOptions) (*CorruptSummary, error) {
	if opts.DropRate < 0 || opts.DropRate >= 1 || opts.FlipRate < 0 || opts.FlipRate > 1 {
		return nil, fmt.Errorf("ncfile: corrupt rates out of range")
	}
	h, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if err := writeHeader(w, h); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	sum := &CorruptSummary{}
	var rec []byte
	for {
		rec, err = readRecord(r, rec)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		sum.Records++
		if rng.Float64() < opts.DropRate {
			sum.Dropped++
			continue
		}
		if rng.Float64() < opts.FlipRate {
			rec[rng.Intn(len(rec))] ^= byte(1 + rng.Intn(255))
			sum.Flipped++
		}
		if err := writeRecord(w, rec); err != nil {
			return nil, err
		}
	}
	return sum, nil
}
