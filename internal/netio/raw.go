package netio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"extremenc/internal/rlnc"
)

// RawClient consumes a serving session at wire speed without decoding: it
// validates the handshake, then reads length-prefixed records and discards
// their payloads. It exists for capacity measurement — the ncload harness
// drives thousands of these against one server so the saturation curve
// reflects server-side coding and framing cost, not client decode speed.
// Records are framing-checked only (the length prefix must be one of the
// session's record sizes); checksum and shape validation are the decoding
// client's job.
//
// A drain client wants every record a server can produce, so on a sweep
// session (a media-backed systematic server, which otherwise falls silent
// after one pass over the source blocks) it asks for repair up front: the
// stream it reads is the sweep followed by the pump's output, without end.
//
// A RawClient is not safe for concurrent use. Close unblocks a pending Next.
type RawClient struct {
	conn              net.Conn
	br                *bufio.Reader
	hdr               sessionHeader
	traced            bool   // session negotiated round preludes before every record
	expect, expectXor uint32 // handshake.recordSizes
	records           int64
	bytes             int64
}

// NewRawClient performs the client side of the handshake on conn and returns
// a reader positioned at the first record. A BUSY or REDIRECT admission
// decision is returned as its sentinel error (ErrAdmissionBusy,
// ErrAdmissionRedirect); on any handshake failure the connection is closed.
// On a sweep session it writes the need record before returning; the server
// reads it when its sweep is written, so conn must buffer those needRecordLen
// bytes, as any socket does.
func NewRawClient(conn net.Conn) (*RawClient, error) {
	br := bufio.NewReaderSize(conn, 32<<10)
	hs, err := readHandshake(br)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if hs.dec != nil {
		conn.Close()
		return nil, hs.dec.Err()
	}
	if hs.flags&hsFlagSweep != 0 {
		if _, err := conn.Write(needRecord); err != nil {
			conn.Close()
			return nil, fmt.Errorf("netio: need record: %w", err)
		}
	}
	c := &RawClient{conn: conn, br: br, hdr: hs.hdr, traced: hs.traced()}
	c.expect, c.expectXor = hs.recordSizes()
	return c, nil
}

// Params returns the coding parameters declared in the handshake.
func (c *RawClient) Params() rlnc.Params { return c.hdr.params }

// Mode returns the wire mode declared in the handshake.
func (c *RawClient) Mode() WireMode { return c.hdr.mode }

// Segments returns the segment count declared in the handshake.
func (c *RawClient) Segments() int { return c.hdr.segments }

// Length returns the payload length declared in the handshake.
func (c *RawClient) Length() int64 { return c.hdr.length }

// Next reads and discards one record, returning its wire size (payload plus
// the 4-byte length prefix). It blocks until a record arrives, the peer
// closes, or Close is called; stream errors (including io.EOF at hang-up)
// are returned verbatim.
func (c *RawClient) Next() (int, error) {
	pre := 0
	if c.traced {
		// A traced session prefixes each record with a round prelude; the
		// raw client validates its CRC (framing) and discards the ID.
		var preBuf [recordPreludeLen]byte
		if _, err := io.ReadFull(c.br, preBuf[:]); err != nil {
			return 0, err
		}
		if _, err := parseRecordPrelude(preBuf[:]); err != nil {
			return 0, err
		}
		pre = recordPreludeLen
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.br, lenBuf[:]); err != nil {
		return 0, err
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n != c.expect && n != c.expectXor {
		return 0, fmt.Errorf("%w: %d, want %d", ErrRecordLength, n, c.expect)
	}
	if _, err := c.br.Discard(int(n)); err != nil {
		return 0, err
	}
	c.records++
	c.bytes += int64(n) + 4 + int64(pre)
	return int(n) + 4 + pre, nil
}

// Records returns how many complete records Next has consumed.
func (c *RawClient) Records() int64 { return c.records }

// Bytes returns the total wire bytes consumed in complete records.
func (c *RawClient) Bytes() int64 { return c.bytes }

// Close closes the underlying connection, unblocking a pending Next.
func (c *RawClient) Close() error { return c.conn.Close() }
