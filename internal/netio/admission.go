package netio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Admission decision record: the structured answer a server gives a new
// connection instead of the session header, making session-cap rejects,
// brownout sheds, and drains protocol events rather than silent hang-ups. It
// is a control record (control.go) with magic "XNCD" and body
//
//	u8 code | u32 retry-after ms | addr bytes (the rest of the body)
//
// Codes: 1 BUSY (retry-after hint, no addr), 2 REDIRECT (addr of a surviving
// server, no hint). The server closes the connection after it; a server that
// admits a session writes the session header instead.
const (
	decisionMagic = "XNCD"
	// maxRedirectAddr bounds a redirect target.
	maxRedirectAddr = 255
)

// admissionCode is the decision discriminator on the wire.
type admissionCode uint8

const (
	admissionBusy admissionCode = iota + 1
	admissionRedirect
)

// Admission errors. Both are delivered through the resilient Fetcher's retry
// loop: BUSY floors the next backoff at the server's hint, REDIRECT re-points
// the fetcher's Redirector (when one is configured) before the next dial.
var (
	// ErrAdmissionBusy reports a handshake answered with a BUSY decision:
	// the server is at its session cap or shedding load under brownout.
	ErrAdmissionBusy = errors.New("netio: server busy")
	// ErrAdmissionRedirect reports a handshake answered with a REDIRECT
	// decision: the server is draining and named a survivor to dial instead.
	ErrAdmissionRedirect = errors.New("netio: session redirected")
)

// admissionDecision is the parsed decision record.
type admissionDecision struct {
	code       admissionCode
	retryAfter time.Duration // BUSY only
	addr       string        // REDIRECT only
}

// Err maps the decision onto its sentinel.
func (d admissionDecision) Err() error {
	if d.code == admissionBusy {
		return fmt.Errorf("%w (retry after %v)", ErrAdmissionBusy, d.retryAfter)
	}
	return fmt.Errorf("%w to %s", ErrAdmissionRedirect, d.addr)
}

// validate rejects a decision no server would write.
func (d admissionDecision) validate() error {
	switch d.code {
	case admissionBusy:
		if d.addr != "" {
			return fmt.Errorf("%w: BUSY carries an address", ErrBadHandshake)
		}
	case admissionRedirect:
		if d.addr == "" || len(d.addr) > maxRedirectAddr {
			return fmt.Errorf("%w: REDIRECT to a %d-byte address", ErrBadHandshake, len(d.addr))
		}
		if d.retryAfter != 0 {
			return fmt.Errorf("%w: REDIRECT carries a retry hint", ErrBadHandshake)
		}
	default:
		return fmt.Errorf("%w: unknown decision code %d", ErrBadHandshake, d.code)
	}
	return nil
}

// appendDecision marshals d onto dst.
func appendDecision(dst []byte, d admissionDecision) ([]byte, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	ms := min(max(d.retryAfter.Milliseconds(), 0), int64(^uint32(0)))
	var b [1 + 4 + maxRedirectAddr]byte
	body := binary.BigEndian.AppendUint32(append(b[:0], byte(d.code)), uint32(ms))
	return appendControl(dst, decisionMagic, append(body, d.addr...)), nil
}

// parseDecision parses an XNCD body.
func parseDecision(body []byte) (admissionDecision, error) {
	if len(body) < 1+4 {
		return admissionDecision{}, fmt.Errorf("%w: %d-byte decision", ErrBadHandshake, len(body))
	}
	d := admissionDecision{
		code:       admissionCode(body[0]),
		retryAfter: time.Duration(binary.BigEndian.Uint32(body[1:])) * time.Millisecond,
		addr:       string(body[5:]),
	}
	if err := d.validate(); err != nil {
		return admissionDecision{}, err
	}
	return d, nil
}

// handshake is everything a server's opening declares: the session header,
// its feature flags, trace context and coefficient key — or, instead, the
// admission decision.
type handshake struct {
	hdr   sessionHeader
	flags uint32
	tctx  traceContext
	key   uint64             // a counter session's coefficient key (TLV type 3)
	dec   *admissionDecision // non-nil: BUSY or REDIRECT, and no session
}

// traced reports whether the session negotiated round preludes.
func (hs *handshake) traced() bool { return hs.flags&hsFlagTrace != 0 }

// counter reports whether the session's records are XNC3 counter records.
func (hs *handshake) counter() bool { return hs.flags&hsFlagCounter != 0 }

// readHandshake reads the server's opening — exactly one control record —
// and dispatches on its magic: a session header, or a BUSY or REDIRECT
// decision.
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
