// Package netio streams network-coded content over real connections (TCP
// or any net.Conn): the deployment path of the paper's streaming-server
// scenario (Sec. 5.1). A server pushes an endless stream of coded blocks
// for every segment of an object; a client decodes progressively and hangs
// up as soon as it holds full rank for everything — no acknowledgements,
// retransmissions, or block scheduling needed, because any blocks work.
// The one exception is the cheapest stream: a media-backed systematic server
// writes each session the source blocks once and then stops until the client
// says it still lacks rank (the need record below).
//
// The Server (server.go) multiplexes many concurrent sessions over one
// shared encoder with bounded per-client queues, write deadlines, and a
// metrics snapshot; this file holds the wire protocol and the client side.
package netio

import (
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
//	  or a decision   XNCD body (admission.go): BUSY or REDIRECT, then close
//	then records:     u32 length | coded block (XNC1, XNC2 or XNC3, package
//	                  rlnc), round-robin across segments, until the client
//	                  closes.
//
// A TLV field is u8 type | u8 length | value: type 1 is the transfer's 8-byte
// trace ID, type 2 the server's 8-byte root span, type 3 the 8-byte key of a
// counter session's coefficients. Unknown types are skipped, so a server may
// add context an older client ignores.
//
// The flags word declares optional stream features. With hsFlagTrace set,
// every record is preceded by a CRC-guarded 12-byte prelude naming the pump
// round (span ID) that encoded it (tracectx.go) — the causal link that lets
// one generation's records be attributed across mesh tiers. Unknown flag bits
// are rejected: a client that cannot parse a feature's framing must not guess
// at record boundaries.
//
// With hsFlagCounter set — a media-backed ModeDense server sets it — every
// record is an XNC3 counter record (rlnc/counter.go): a u32 index where XNC1
// carries the n-byte coefficient vector, which the client regenerates as
// rlnc.CounterCoeffs of the header's key (TLV type 3, required with the flag),
// the record's segment and its index. The flag is refused on a ModeSystematic
// header: sweep, repair and dense-tail records keep their own encodings.
//
// With hsFlagSweep set, the records after the handshake are one systematic
// sweep — every source block of every segment exactly once, as XNC2 records,
// n × segments of them — and then nothing: the server sends no more until the
// client writes the protocol's one client→server record, the need record
// (XNCN, body u32 reserved = 0), after which repair records (XNC2 XOR repair,
// XNC1 dense) follow until the client closes, as on any other session. A
// client that decoded everything from the sweep just closes. The server reads
// nothing before its sweep is written and at most needRecordLen bytes after
// it; a peer that sends anything else, or stays silent past the server's
// write-deadline budget, is dropped. The reserved word is where a client will
// one day say what it already holds. Without the flag the client must send
// nothing, ever.
//
// The wire mode is the server's declaration of the coding discipline for the
// whole session; the client adapts its record parser to it. In ModeDense
// every record is a dense block — XNC3 from a media-backed origin, XNC1 from
// a recoding relay. In ModeSystematic records interleave XNC2 GF(2) blocks
// (systematic sweep + XOR repair) with XNC1 dense-tail blocks, and the
// receiver's decoder rides its XOR-only fast path until the first dense
// record arrives.
const (
	protoMagic     = "XNCP"
	protoVersion   = 4
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

// Session flag bits (the u32 flags word of the session header).
const (
	// hsFlagTrace: every record carries a round-span prelude.
	hsFlagTrace uint32 = 1 << 0

	// hsFlagSweep: the session opens with one systematic sweep and then waits
	// for the client's need record before sending repair.
	hsFlagSweep uint32 = 1 << 1

	// hsFlagCounter: every record is an XNC3 counter record under the key of
	// TLV type 3.
	hsFlagCounter uint32 = 1 << 2

	// hsFlagKnown masks the bits this implementation understands.
	hsFlagKnown = hsFlagTrace | hsFlagSweep | hsFlagCounter
)

// The need record: what a client on an hsFlagSweep session writes, once, when
// the sweep left it short of rank.
const (
	needMagic     = "XNCN"
	needRecordLen = controlOverhead + 4
)

// ErrBadNeedRecord reports client→server bytes that are not a need record.
var ErrBadNeedRecord = errors.New("netio: bad need record")

// needRecord is the one need record there is: the reserved word is zero.
var needRecord = appendControl(nil, needMagic, make([]byte, 4))

// readNeedRecord reads and validates a need record, reading at most
// needRecordLen bytes. A non-zero reserved word is refused, like an unknown
// handshake flag: it will mean something one day, and a server that does not
// know what must not guess.
func readNeedRecord(r io.Reader) error {
	magic, body, err := readControl(r, make([]byte, needRecordLen))
	switch {
	case err != nil:
		return fmt.Errorf("%w: %v", ErrBadNeedRecord, err)
	case magic != needMagic:
		return fmt.Errorf("%w: magic %q", ErrBadNeedRecord, magic)
	case len(body) != 4:
		return fmt.Errorf("%w: %d-byte body", ErrBadNeedRecord, len(body))
	case binary.BigEndian.Uint32(body) != 0:
		return fmt.Errorf("%w: reserved word %#x", ErrBadNeedRecord, binary.BigEndian.Uint32(body))
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
	// and repair only on request (hsFlagSweep); a relay has no source blocks
	// to sweep and pushes its GF(2) recombinations as in ModeDense.
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

// sessionHeader describes the stream.
type sessionHeader struct {
	params   rlnc.Params
	segments int
	length   int64
	mode     WireMode
}

// recordSizes returns the marshaled record lengths a session of hs can
// carry. Every record is a block of the handshake's (n, k), so its framed
// length is a constant: the XNC3 size on a counter session, the XNC1 size on
// any other dense one, and in systematic mode two constants, compact XNC2
// GF(2) records interleaving with XNC1 dense ones. A length prefix that
// matches neither is framing loss.
func (hs handshake) recordSizes() (dense, xor uint32) {
	p := hs.hdr.params
	if hs.counter() {
		dense = uint32(rlnc.CounterWireSize(p))
		return dense, dense
	}
	dense = uint32(rlnc.WireSize(p))
	if hs.hdr.mode == ModeSystematic {
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
// sessionHeader: feature negotiation is per-connection (a redirect may land on
// a server with different features, or another key), while sessionHeader
// identity gates reconnect safety.
func appendSessionHeader(dst []byte, hs handshake) []byte {
	h := hs.hdr
	var b [headerFixedLen + 3*tlvLen]byte
	body := binary.BigEndian.AppendUint32(b[:0], protoVersion)
	body = binary.BigEndian.AppendUint32(body, uint32(h.params.BlockCount))
	body = binary.BigEndian.AppendUint32(body, uint32(h.params.BlockSize))
	body = binary.BigEndian.AppendUint32(body, uint32(h.segments))
	body = binary.BigEndian.AppendUint64(body, uint64(h.length))
	body = binary.BigEndian.AppendUint32(body, uint32(h.mode))
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

// validate rejects a header no handshake would accept; SessionInfo.Validate
// and the handshake parser share it. The segment count must be the one
// rlnc.Split makes of length bytes — at least one — or a client would size
// the reassembled object from a length its segments cannot hold.
func (h sessionHeader) validate() error {
	if err := h.params.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	if h.segments <= 0 || h.length < 0 {
		return fmt.Errorf("%w: shape", ErrBadHandshake)
	}
	seg := int64(h.params.SegmentSize())
	if want := max(1, h.length/seg+min(1, h.length%seg)); int64(h.segments) != want {
		return fmt.Errorf("%w: %d bytes are %d segments of %v, not %d", ErrBadHandshake, h.length, want, h.params, h.segments)
	}
	if h.mode > ModeSystematic {
		return fmt.Errorf("%w: %v", ErrBadHandshake, h.mode)
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
		hdr: sessionHeader{
			params: rlnc.Params{
				BlockCount: int(binary.BigEndian.Uint32(body[4:])),
				BlockSize:  int(binary.BigEndian.Uint32(body[8:])),
			},
			segments: int(binary.BigEndian.Uint32(body[12:])),
			length:   int64(binary.BigEndian.Uint64(body[16:])),
			mode:     WireMode(binary.BigEndian.Uint32(body[24:])),
		},
		flags: binary.BigEndian.Uint32(body[28:]),
	}
	if err := hs.hdr.validate(); err != nil {
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
		if hs.hdr.mode != ModeDense {
			return handshake{}, fmt.Errorf("%w: counter records in %v mode", ErrBadHandshake, hs.hdr.mode)
		}
		hs.key = key
	}
	return hs, nil
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

	// AdmissionBusy and AdmissionRedirected count handshakes answered with
	// a structured rejection instead of a session: the server was shedding
	// load (BUSY) or draining toward a named survivor (REDIRECT).
	AdmissionBusy       int
	AdmissionRedirected int
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
