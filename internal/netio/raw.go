package netio

import (
	"bufio"
	"fmt"
	"net"
	"slices"

	"extremenc/internal/rlnc"
)

// RawClient consumes a serving session at wire speed without decoding: it
// validates the handshake, then reads length-prefixed records and discards
// their payloads. It exists for capacity measurement — the `nc load` harness
// drives thousands of these against one server so the saturation curve
// reflects server-side coding and framing cost, not client decode speed.
// Records are framing-checked only (the length prefix must be one of the
// session's record sizes); checksum and shape validation are the decoding
// client's job. It reads its session through the same clientSession as the
// Fetcher, with a reader of its own, not a pooled one: Close may race a
// pending Next.
//
// A drain client wants every record a server can produce, but a server sends
// a session only what it is owed — n + margin records of each segment, or n
// of a segment it sweeps. So once it has read that first grant's n records a
// segment, every Next first asks for a fresh one: a need record declaring
// every segment n short, which resets the server's credit to a full grant. A
// fast reader is thus never starved by a round trip, and a slow one is owed
// more than it reads — it backs the server's queues up, as a pushing server's
// slow reader did. The stream it reads is without end.
//
// A RawClient is not safe for concurrent use. Close unblocks a pending Next.
type RawClient struct {
	clientSession
	records, bytes int64  // complete records and their wire bytes
	need           []byte // asks for a full grant: every segment n short
}

// NewRawClient performs the client side of the handshake on conn and returns
// a reader positioned at the first record. A BUSY admission decision is
// returned as ErrAdmissionBusy; on any handshake failure the connection is
// closed.
// It writes nothing: the first records are owed from the handshake on.
func NewRawClient(conn net.Conn) (*RawClient, error) {
	c := &RawClient{}
	if err := c.open(conn, bufio.NewReaderSize(conn, 32<<10)); err != nil {
		conn.Close()
		return nil, err
	}
	c.need = appendNeed(nil, slices.Repeat([]uint32{uint32(c.hs.hdr.Params.BlockCount)}, c.hs.hdr.Segments))
	return c, nil
}

// Params returns the coding parameters declared in the handshake.
func (c *RawClient) Params() rlnc.Params { return c.hs.hdr.Params }

// Mode returns the wire mode declared in the handshake.
func (c *RawClient) Mode() WireMode { return c.hs.hdr.Mode }

// Segments returns the segment count declared in the handshake.
func (c *RawClient) Segments() int { return c.hs.hdr.Segments }

// Length returns the payload length declared in the handshake.
func (c *RawClient) Length() int64 { return c.hs.hdr.Length }

// Next reads and discards one record, returning its wire size (the record
// with its length prefix). It
// blocks until a record arrives, the peer closes, or Close is called. A
// stream that ends is ErrStreamTruncated, wrapping the read's own error
// (io.EOF at hang-up); framing loss is ErrRecordLength.
func (c *RawClient) Next() (int, error) {
	if c.spent() {
		if err := c.ask(c.need, 0); err != nil {
			return 0, fmt.Errorf("netio: need record: %w", err)
		}
	}
	_, wire, err := c.next()
	if err != nil {
		return 0, err
	}
	c.records++
	c.bytes += int64(wire)
	return wire, nil
}

// Records returns how many complete records Next has consumed.
func (c *RawClient) Records() int64 { return c.records }

// Bytes returns the total wire bytes consumed in complete records.
func (c *RawClient) Bytes() int64 { return c.bytes }

// Close closes the underlying connection, unblocking a pending Next.
func (c *RawClient) Close() error { return c.conn.Close() }
