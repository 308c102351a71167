package netio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Admission decision record: the structured answer a server gives a new
// connection instead of the session header, making session-cap rejects and
// drains protocol events rather than silent hang-ups. It is a control record
// (control.go) with magic "XNCD" and body
//
//	u8 code | u32 retry-after ms
//
// Code 1, BUSY, is the only decision: the server is at its session cap or
// draining, and the client should dial again after the hint. Which server a
// client dials next is not the server's to say — in a mesh the coordinator
// routes every leaf. Protocol v4's code 2, REDIRECT (an address after the
// hint), and any other code or trailing byte are refused. The server closes
// the connection after it; a server that admits a session writes the session
// header instead.
const (
	decisionMagic = "XNCD"
	decisionBusy  = 1
	decisionLen   = 1 + 4
)

// ErrAdmissionBusy reports a handshake answered with a BUSY decision: the
// server is at its session cap or draining. The resilient Fetcher's retry
// loop floors its next backoff at the server's hint.
var ErrAdmissionBusy = errors.New("netio: server busy")

// admissionDecision is the parsed BUSY decision.
type admissionDecision struct {
	retryAfter time.Duration
}

// Err maps the decision onto ErrAdmissionBusy.
func (d admissionDecision) Err() error {
	return fmt.Errorf("%w (retry after %v)", ErrAdmissionBusy, d.retryAfter)
}

// appendDecision marshals d onto dst.
func appendDecision(dst []byte, d admissionDecision) []byte {
	ms := min(max(d.retryAfter.Milliseconds(), 0), int64(^uint32(0)))
	var b [decisionLen]byte
	b[0] = decisionBusy
	binary.BigEndian.PutUint32(b[1:], uint32(ms))
	return appendControl(dst, decisionMagic, b[:])
}

// parseDecision parses an XNCD body.
func parseDecision(body []byte) (admissionDecision, error) {
	switch {
	case len(body) > 0 && body[0] != decisionBusy:
		return admissionDecision{}, fmt.Errorf("%w: unknown decision code %d", ErrBadHandshake, body[0])
	case len(body) != decisionLen:
		return admissionDecision{}, fmt.Errorf("%w: %d-byte decision", ErrBadHandshake, len(body))
	}
	return admissionDecision{retryAfter: time.Duration(binary.BigEndian.Uint32(body[1:])) * time.Millisecond}, nil
}

// handshake is everything a server's opening declares: the session header,
// its feature flags, trace context and coefficient key — or, instead, the
// admission decision.
type handshake struct {
	hdr   SessionInfo
	flags uint32
	tctx  traceContext
	key   uint64             // a counter session's coefficient key (TLV type 3)
	dec   *admissionDecision // non-nil: BUSY, and no session
}

// counter reports whether the session's records are XNC3 counter records.
func (hs *handshake) counter() bool { return hs.flags&hsFlagCounter != 0 }

// readHandshake reads the server's opening — exactly one control record —
// and dispatches on its magic: a session header, or a BUSY decision.
func readHandshake(r io.Reader) (handshake, error) {
	magic, body, err := readControl(r, make([]byte, controlOverhead+handshakeBodyMax))
	if err != nil {
		return handshake{}, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	switch magic {
	case protoMagic:
		return parseSessionHeader(body)
	case decisionMagic:
		d, err := parseDecision(body)
		if err != nil {
			return handshake{}, err
		}
		return handshake{dec: &d}, nil
	}
	return handshake{}, fmt.Errorf("%w: magic %q", ErrBadHandshake, magic)
}
