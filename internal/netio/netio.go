// Package netio streams network-coded content over real connections (TCP
// or any net.Conn): the deployment path of the paper's streaming-server
// scenario (Sec. 5.1). A server sends coded blocks for every segment of an
// object; a client decodes progressively and hangs up as soon as it holds
// full rank for everything — no acknowledgements, retransmissions, or block
// scheduling needed, because any blocks work. The server does not push
// without end: each session is written one basis of every segment — the
// sweep — and a client still short of rank once it has read it says by how
// much (the need record below), which buys it a bounded credit of more.
// Feedback only trims what is sent; which records travel is never a client's
// choice.
//
// The Server (server.go) multiplexes many concurrent sessions over one
// encoder pump, which fans its records out to the bounded queues of the
// sessions it feeds, with write deadlines and a metrics snapshot; this file
// holds the wire protocol and the client side.
package netio

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"extremenc/internal/obs/trace"
	"extremenc/internal/rlnc"
)

// Protocol (DESIGN.md §23 tabulates every record):
//
//	the server opens with exactly one control record (control.go):
//	  session header  XNCP body: u32 version | u32 n | u32 k | u32 segment count |
//	                  u64 payload length | u32 wire mode | u32 flags | TLV fields
//	  or a decision   XNCD body (admission.go): BUSY, then close
//	then records:     u32 length | coded block (XNC1, XNC2 or XNC3, package
//	                  rlnc): the sweep, then what the client's need records
//	                  buy, round-robin across segments, until it closes.
//
// The client writes only need records (XNCN, a control record), and only after
// the handshake:
//
//	XNCN body:        u32 segment count | per segment, u32 rank deficit
//
// Credit. A session opens owed nothing but its sweep (below). A need record
// sets — never adds to — segment s's credit to min(deficit_s, n) + margin, or
// 0 where the deficit is 0. The pump offers a session no more than it is owed
// and its queue has room for, and takes what it offers from the credit.
// margin is a constant of the session's coding field (grantMargin): 2 for
// dense GF(2^8) records, 8 where records are GF(2) combinations
// (ModeSystematic). A client counts every record it reads, damaged ones
// included; once it has read what it was last owed — n per segment until it
// has asked, then the grant its last ask bought — and is still short, it
// writes a need record with its current deficits. Every ask is met with what
// it bought, so a client that lacks rank never waits on a silent server:
// dependent or damaged records cost it one round trip, and however many a
// server sends, a client writes at most one need record per margin's worth
// of records read. The server reads need records into a buffer sized by its
// own segment count, so a record declaring another count, a body of the
// wrong length, or anything that is not a need record ends the session after
// at most one record's bytes. A session owed nothing with nothing queued
// waits WriteDeadline for a need record before it is dropped.
//
// A TLV field is u8 type | u8 length | value: type 1 is the transfer's 8-byte
// trace ID, type 2 the server's 8-byte root span, type 3 the 8-byte key of a
// counter session's coefficients. Unknown types are skipped, so a server may
// add context an older client ignores. A session is traced exactly when its
// header carries types 1 and 2: a client's spans parent under the root span
// it names, and not one byte after the header differs from an untraced
// session's — a record needs nothing on the wire but itself, and its segment
// is in it.
//
// The flags word declares optional stream features; the one defined is
// hsFlagCounter. Unknown flag bits are rejected: a client that cannot parse a
// feature's framing must not guess at record boundaries.
//
// With hsFlagCounter set, records are XNC3 counter records (rlnc/counter.go) —
// a u32 index where XNC1 carries the n-byte coefficient vector, which the
// client regenerates as rlnc.CounterCoeffs of the header's key (TLV type 3,
// required with the flag), the record's segment and its index — and, since
// v6, XNC1: a relay of a counter session forwards its XNC3 records under its
// key, but its recombinations have no index. Systematic headers refuse it.
//
// Every session opens with one sweep: n records of a basis of every segment
// (counter records 0…n−1 of a media-backed ModeDense server as XNC3, the
// source blocks of a ModeSystematic one as XNC2, a relay's held records as
// they arrived), each once, each as soon as the server holds it — a relay
// still filling writes each record as it arrives. A client that decoded
// everything just closes; one that did not writes a need record, which buys
// records of its short segments — after loss, or, for about one (key,
// segment) pair in 255, because a dense origin's counter vectors 0…n−1 fall
// short of rank n. The server reads nothing before its sweep is written, so
// an ask always meets a whole basis.
//
// The wire mode is the server's declaration of the coding discipline for the
// whole session; the client adapts its record parser to it. In ModeDense
// every record is a dense block: XNC3 and XNC1 on a counter session, XNC1 on
// any other. In ModeSystematic records interleave XNC2 GF(2) blocks
// (systematic sweep + XOR repair) with XNC1 dense-tail blocks, and the
// receiver's decoder rides its XOR-only fast path until the first dense
// record arrives.
const (
	protoMagic     = "XNCP"
	protoVersion   = 6
	headerFixedLen = 4 + 4 + 4 + 4 + 8 + 4 + 4
	// protoHeaderLen is a session header without TLV fields on the wire.
	protoHeaderLen = controlOverhead + headerFixedLen

	// handshakeBodyMax bounds the body of the server's opening record.
	handshakeBodyMax = 512

	tlvTrace    = 1
	tlvRootSpan = 2
	tlvCoeffKey = 3
	tlvLen      = 2 + 8 // every TLV field this implementation writes
)

// Session flag bits (the u32 flags word of the session header). Bits 0 and 1
// are unassigned, and refused like any other unknown bit.
const (
	// hsFlagCounter: every record is an XNC3 counter record under the key of
	// TLV type 3.
	hsFlagCounter uint32 = 1 << 2

	// hsFlagKnown masks the bits this implementation understands.
	hsFlagKnown = hsFlagCounter
)

// The need record: a client's per-segment rank deficits, the one thing it
// ever writes.
const needMagic = "XNCN"

// Grant margins: the records a grant adds to a segment's deficit, so that a
// few dependent records do not cost a round trip. n + m random GF(2^8) records
// miss rank n with probability about 256^−(m+1), n + m GF(2) combinations with
// about 2^−(m+1), so GF(2) sessions get the larger margin.
const (
	marginDense  = 2
	marginBinary = 8
)

// grantMargin is the margin of a session whose records are in mode's field:
// dense GF(2^8) records in ModeDense, GF(2) combinations in ModeSystematic.
func grantMargin(mode WireMode) int {
	if mode == ModeSystematic {
		return marginBinary
	}
	return marginDense
}

// ErrBadNeedRecord reports client→server bytes that are not a need record.
var ErrBadNeedRecord = errors.New("netio: bad need record")

// needLen is the wire length of a need record of a segments-segment session.
func needLen(segments int) int { return controlOverhead + 4 + 4*segments }

// appendNeed appends the need record carrying deficits, one per segment; it
// allocates nothing when dst has room.
func appendNeed(dst []byte, deficits []uint32) []byte {
	start := len(dst)
	dst = openControl(dst, needMagic, 4+4*len(deficits))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(deficits)))
	for _, d := range deficits {
		dst = binary.BigEndian.AppendUint32(dst, d)
	}
	return sealControl(dst, start)
}

// readNeed reads one need record of a len(deficits)-segment session through
// buf, which must be needLen(len(deficits)) bytes, into deficits. A record
// declaring another segment count, or a body that does not hold exactly one
// deficit per segment, is refused; so is a longer declared body, after its
// 8-byte prefix. Deficits above the generation size are the grant's to clamp.
func readNeed(r io.Reader, buf []byte, deficits []uint32) error {
	magic, body, err := readControl(r, buf)
	switch {
	case err != nil:
		return fmt.Errorf("%w: %v", ErrBadNeedRecord, err)
	case magic != needMagic:
		return fmt.Errorf("%w: magic %q", ErrBadNeedRecord, magic)
	case len(body) < 4 || binary.BigEndian.Uint32(body) != uint32(len(deficits)):
		return fmt.Errorf("%w: segment count of a %d-byte body, want %d", ErrBadNeedRecord, len(body), len(deficits))
	case len(body) != 4+4*len(deficits):
		return fmt.Errorf("%w: %d-byte body for %d segments", ErrBadNeedRecord, len(body), len(deficits))
	}
	for i := range deficits {
		deficits[i] = binary.BigEndian.Uint32(body[4+4*i:])
	}
	return nil
}

// WireMode selects the session's coding discipline, negotiated in the
// handshake (declared by the server, adopted by the client).
type WireMode uint32

const (
	// ModeDense streams dense GF(2^8) coded blocks for every record: the
	// maximum-innovation discipline (dependence probability ≈ 1/256 per
	// missing rank) at full table-driven arithmetic cost.
	ModeDense WireMode = 0
	// ModeSystematic streams source blocks verbatim, GF(2) XOR repair blocks
	// and a dense GF(2^8) tail — the wire-speed discipline for lightly-lossy
	// links. A media-backed server sends each session the source blocks once
	// and repair only on request.
	ModeSystematic WireMode = 1
)

// String returns the flag-value spelling of the mode.
func (m WireMode) String() string {
	switch m {
	case ModeDense:
		return "dense"
	case ModeSystematic:
		return "systematic"
	default:
		return fmt.Sprintf("mode(%d)", uint32(m))
	}
}

// MarshalText renders the mode as String does, so JSON carries "dense" or
// "systematic".
func (m WireMode) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// ParseWireMode parses the flag-value spelling ("dense" or "systematic").
func ParseWireMode(s string) (WireMode, error) {
	switch s {
	case "dense":
		return ModeDense, nil
	case "systematic":
		return ModeSystematic, nil
	default:
		return 0, fmt.Errorf("netio: unknown wire mode %q (want dense or systematic)", s)
	}
}

// Client-side protocol errors.
var (
	// ErrBadHandshake reports a malformed session header.
	ErrBadHandshake = errors.New("netio: bad session header")
	// ErrRecordLength reports an implausible record length prefix.
	ErrRecordLength = errors.New("netio: implausible record length")
	// ErrStreamTruncated reports a stream that ended before the client
	// reached full rank.
	ErrStreamTruncated = errors.New("netio: stream ended early")
)

// SessionInfo describes the object a server declares in its session
// handshake: the coding parameters, segment count, reassembled byte length,
// and wire mode. It is the session header as the wire carries it — a relay
// that fetches upstream learns the SessionInfo from its fetcher's session hook
// and re-declares the same object, in the same mode, downstream.
type SessionInfo struct {
	Params   rlnc.Params
	Segments int
	Length   int64
	Mode     WireMode
}

// recordSizes returns the marshaled record lengths a session of hs can
// carry: every record is a block of the handshake's (n, k) in one of two
// encodings — XNC3 and XNC1 on a counter session, XNC1 and compact XNC2 in
// systematic mode, XNC1 alone otherwise. A length prefix that matches neither
// is framing loss.
func (hs handshake) recordSizes() (first, second uint32) {
	p := hs.hdr.Params
	dense := uint32(rlnc.WireSize(p))
	switch {
	case hs.counter():
		return uint32(rlnc.CounterWireSize(p)), dense
	case hs.hdr.Mode == ModeSystematic:
		return dense, uint32(rlnc.XorWireSize(p))
	}
	return dense, dense
}

// traceContext is the causal identity a server hands its clients in the
// header's TLV fields: the transfer's trace ID and the server's root span,
// which downstream spans reference as their parent. Zero: none declared.
type traceContext struct {
	trace trace.TraceID
	root  trace.SpanID
}

// appendSessionHeader marshals hs onto dst: the header, its feature flags,
// and as TLV fields the trace context (omitted when zero) and, on a counter
// session, the coefficient key. The flags word is deliberately NOT part of
// SessionInfo: feature negotiation is per-connection (a reconnect may land on
// a server with different features, or another key), while SessionInfo
// identity gates reconnect safety.
func appendSessionHeader(dst []byte, hs handshake) []byte {
	h := hs.hdr
	var b [headerFixedLen + 3*tlvLen]byte
	body := binary.BigEndian.AppendUint32(b[:0], protoVersion)
	body = binary.BigEndian.AppendUint32(body, uint32(h.Params.BlockCount))
	body = binary.BigEndian.AppendUint32(body, uint32(h.Params.BlockSize))
	body = binary.BigEndian.AppendUint32(body, uint32(h.Segments))
	body = binary.BigEndian.AppendUint64(body, uint64(h.Length))
	body = binary.BigEndian.AppendUint32(body, uint32(h.Mode))
	body = binary.BigEndian.AppendUint32(body, hs.flags)
	if hs.tctx != (traceContext{}) {
		body = binary.BigEndian.AppendUint64(append(body, tlvTrace, 8), uint64(hs.tctx.trace))
		body = binary.BigEndian.AppendUint64(append(body, tlvRootSpan, 8), uint64(hs.tctx.root))
	}
	if hs.counter() {
		body = binary.BigEndian.AppendUint64(append(body, tlvCoeffKey, 8), hs.key)
	}
	return appendControl(dst, protoMagic, body)
}

// maxSegments bounds the segment count a session may declare (8 GiB at n=32,
// k=4096): a relay builds a recoder per segment at the handshake, a session
// holds a credit per segment, and a sink fetch's Ranks walks them all.
const maxSegments = 1 << 16

// Validate rejects a SessionInfo no handshake would accept; the handshake
// parser and a source server's constructor both call it. The segment count
// must be the one rlnc.Split makes of length bytes — at least one, at most
// maxSegments — or a client would size the reassembled object from a length
// its segments cannot hold.
func (si SessionInfo) Validate() error {
	if err := si.Params.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if si.Segments <= 0 || si.Length < 0 {
		return fmt.Errorf("%w: shape", ErrBadHandshake)
	}
	if si.Segments > maxSegments {
		return fmt.Errorf("%w: %d segments, at most %d", ErrBadHandshake, si.Segments, maxSegments)
	}
	seg := int64(si.Params.SegmentSize())
	if want := max(1, si.Length/seg+min(1, si.Length%seg)); int64(si.Segments) != want {
		return fmt.Errorf("%w: %d bytes are %d segments of %v, not %d", ErrBadHandshake, si.Length, want, si.Params, si.Segments)
	}
	if si.Mode > ModeSystematic {
		return fmt.Errorf("%w: %v", ErrBadHandshake, si.Mode)
	}
	return nil
}

// parseSessionHeader parses an XNCP body: the header, its feature flags and
// the trace context its TLV fields declare.
func parseSessionHeader(body []byte) (handshake, error) {
	if len(body) < headerFixedLen {
		return handshake{}, fmt.Errorf("%w: %d-byte header", ErrBadHandshake, len(body))
	}
	if v := binary.BigEndian.Uint32(body); v != protoVersion {
		return handshake{}, fmt.Errorf("%w: version %d", ErrBadHandshake, v)
	}
	hs := handshake{
		hdr: SessionInfo{
			Params: rlnc.Params{
				BlockCount: int(binary.BigEndian.Uint32(body[4:])),
				BlockSize:  int(binary.BigEndian.Uint32(body[8:])),
			},
			Segments: int(binary.BigEndian.Uint32(body[12:])),
			Length:   int64(binary.BigEndian.Uint64(body[16:])),
			Mode:     WireMode(binary.BigEndian.Uint32(body[24:])),
		},
		flags: binary.BigEndian.Uint32(body[28:]),
	}
	if err := hs.hdr.Validate(); err != nil {
		return handshake{}, err
	}
	if unknown := hs.flags &^ hsFlagKnown; unknown != 0 {
		// An unknown feature may change record framing; guessing at stream
		// boundaries would corrupt every downstream decoder.
		return handshake{}, fmt.Errorf("%w: unknown flags %#x", ErrBadHandshake, unknown)
	}
	var key uint64
	keyed := false
	for tlv := body[headerFixedLen:]; len(tlv) > 0; {
		if len(tlv) < 2 || len(tlv)-2 < int(tlv[1]) {
			return handshake{}, fmt.Errorf("%w: TLV field overruns the header", ErrBadHandshake)
		}
		typ, val := tlv[0], tlv[2:2+int(tlv[1])]
		tlv = tlv[2+len(val):]
		if typ != tlvTrace && typ != tlvRootSpan && typ != tlvCoeffKey {
			continue // unknown: skipped
		}
		if len(val) != 8 {
			return handshake{}, fmt.Errorf("%w: %d-byte TLV field %d", ErrBadHandshake, len(val), typ)
		}
		switch id := binary.BigEndian.Uint64(val); typ {
		case tlvTrace:
			hs.tctx.trace = trace.TraceID(id)
		case tlvRootSpan:
			hs.tctx.root = trace.SpanID(id)
		default:
			key, keyed = id, true
		}
	}
	if hs.counter() {
		// Without its key a counter record is a payload with no coefficients,
		// and the feature belongs to dense sessions alone. A key without the
		// flag declares nothing and is dropped.
		if !keyed {
			return handshake{}, fmt.Errorf("%w: counter session without a key", ErrBadHandshake)
		}
		if hs.hdr.Mode != ModeDense {
			return handshake{}, fmt.Errorf("%w: counter records in %v mode", ErrBadHandshake, hs.hdr.Mode)
		}
		hs.key = key
	}
	return hs, nil
}

// clientSession is the client side of one session, the one reader of a
// server's stream that the Fetcher (which decodes) and RawClient (which
// drains) share. open reads the server's opening; next yields the records
// after it, framing-checked and peeked whole where they lie in the reader;
// spent and ask keep the grant's count — the records of the last ask, n per
// segment until the first — and write the need record that renews it. What a
// client asks for, and what it does with a record, are its own.
type clientSession struct {
	hs    handshake
	conn  net.Conn
	rd    *bufio.Reader
	sizes [2]uint32 // the session's record sizes (recordSizes)
	held  int       // the last record's length: it is still in rd
	body  int       // a record whose prefix next took, its body not yet read
	left  int       // records of the last ask not yet read
	lost  bool      // next stopped at framing loss
}

// open reads the server's opening from conn through rd. A BUSY decision is
// its ErrAdmissionBusy error, the decision left in s.hs.dec for its
// retry-after hint. Records are read through rd, or, when one is longer than
// rd's buffer, through a reader sized to it that first drains what rd
// already holds.
func (s *clientSession) open(conn net.Conn, rd *bufio.Reader) error {
	hs, err := readHandshake(rd)
	s.hs = hs
	if err != nil {
		return err
	}
	if hs.dec != nil {
		return hs.dec.Err()
	}
	s.conn, s.rd = conn, rd
	s.sizes[0], s.sizes[1] = hs.recordSizes()
	if size := int(max(s.sizes[0], s.sizes[1])); size > rd.Size() {
		s.rd = bufio.NewReaderSize(io.MultiReader(io.LimitReader(rd, int64(rd.Buffered())), conn), size)
	}
	s.left = hs.hdr.Params.BlockCount * hs.hdr.Segments
	return nil
}

// spent reports whether the records of the last ask have all been read, so
// the next one must be asked for.
func (s *clientSession) spent() bool { return s.left <= 0 }

// ask writes need, a need record, and counts down want records from here.
func (s *clientSession) ask(need []byte, want int) error {
	s.left = want
	_, err := s.conn.Write(need)
	return err
}

// next reads one record — its length prefix and the record — and returns the
// record, peeked whole in the reader and valid until the next call, with the
// wire bytes it took; on failure, wire is what was thrown away. A prefix that
// is neither of the session's record sizes is framing loss (ErrRecordLength,
// and s.lost): the stream beyond it cannot be parsed. A stream that ends
// first is ErrStreamTruncated. A read that failed on the connection's read
// deadline loses nothing: the next call resumes where it stopped, and counts
// the whole record.
func (s *clientSession) next() (rec []byte, wire int, err error) {
	s.rd.Discard(s.held) //nolint:errcheck // Peek returned the held bytes
	s.held = 0
	if s.body == 0 {
		b, err := s.rd.Peek(recordLenLen)
		if err != nil {
			return nil, 0, fmt.Errorf("%w: %w", ErrStreamTruncated, err)
		}
		n := binary.BigEndian.Uint32(b)
		if n != s.sizes[0] && n != s.sizes[1] {
			s.lost = true
			return nil, recordLenLen, fmt.Errorf("%w: %d, want %d or %d", ErrRecordLength, n, s.sizes[0], s.sizes[1])
		}
		// The framing goes before the record is peeked, so a refill slides
		// the record itself to the buffer's start and the payload a decoder
		// copies out keeps its alignment: with the prefix in front, a fetch of
		// 4 KiB XOR records ran 8% slower (2-vCPU Xeon, 2.1 GHz).
		s.rd.Discard(recordLenLen) //nolint:errcheck // Peek returned the prefix
		s.body = int(n)
	}
	wire = recordLenLen
	if rec, err = s.rd.Peek(s.body); err != nil {
		return nil, wire + len(rec), fmt.Errorf("%w: truncated record: %w", ErrStreamTruncated, err)
	}
	s.held, s.body = len(rec), 0
	s.left--
	return rec, wire + len(rec), nil
}

// FetchStats reports a client download, including its fault history. The
// reject counters are split by cause so operators can tell line damage
// (Corrupt), a misbehaving server (Malformed, BadSegment), and framing loss
// (FramingResyncs) apart at a glance.
type FetchStats struct {
	// Attempts counts connection attempts, including the first; Reconnects
	// counts the successful handshakes after the first.
	Attempts   int
	Reconnects int

	Records   int // complete records received
	Dependent int // linearly dependent blocks (innovation overhead)

	Corrupt    int // records rejected for bit damage (bad magic or checksum)
	Malformed  int // checksummed records whose shape disagrees with the session
	BadSegment int // checksummed records with an out-of-range segment ID

	// FramingResyncs counts corrupted length prefixes: each one makes the
	// rest of the stream unparseable and forces a reconnect (rank is kept).
	FramingResyncs int

	// ResumedRank accumulates, over all reconnects, the total decoder rank
	// carried into the new session — direct evidence that no reconnect
	// restarted a segment from zero.
	ResumedRank int

	Bytes          int64 // wire bytes consumed in complete records
	BytesDiscarded int64 // bytes thrown away: rejected records, bad prefixes, partials

	// AdmissionBusy counts handshakes answered with a BUSY decision instead
	// of a session: the server was at its session cap or draining.
	AdmissionBusy int
}

// Fetch downloads and decodes the served object from conn, closing it once
// every segment reaches full rank. Records that fail their checksum are
// skipped — coded streams need no retransmission. Cancelling ctx (or its
// deadline expiring) unblocks any pending read and returns ctx.Err().
//
// Fetch is the one-shot path: it consumes exactly the given connection and
// any stream failure is final. The returned stats are non-nil even on
// error. For a client that survives resets, framing loss, and server
// restarts without losing decoder rank, use a Fetcher with a dial function.
func Fetch(ctx context.Context, conn net.Conn) ([]byte, *FetchStats, error) {
	defer conn.Close()
	cfg := DefaultFetcherConfig()
	cfg.MaxAttempts = 1
	f := newFetcher(func(context.Context) (net.Conn, error) {
		return conn, nil
	}, cfg)
	res, err := f.Fetch(ctx)
	return res.Payload, res.Stats, err
}
