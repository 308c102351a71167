package netio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Control records — the session header (XNCP), the admission decision
// (XNCD), the need record (XNCN) and the fetch resume state (XNCF) — share one
// framing, written by appendControl and read by readControl:
//
//	magic[4] | u32 body length | body | u32 CRC-32 (IEEE) over everything before it
//
// Coded blocks (XNC1/XNC2/XNC3, package rlnc) are not control records;
// DESIGN.md §23 tabulates every record on the wire.
const controlOverhead = 4 + 4 + 4

// appendControl appends one control record carrying body to dst.
func appendControl(dst []byte, magic string, body []byte) []byte {
	start := len(dst)
	dst = append(openControl(dst, magic, len(body)), body...)
	return sealControl(dst, start)
}

// openControl appends a control record's magic and body length; the caller
// appends bodyLen body bytes and then seals the record from where it started.
func openControl(dst []byte, magic string, bodyLen int) []byte {
	dst = append(dst, magic...)
	return binary.BigEndian.AppendUint32(dst, uint32(bodyLen))
}

// sealControl appends the CRC of the control record that starts at dst[start].
func sealControl(dst []byte, start int) []byte {
	return binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:]))
}

// readControl reads one control record from r into buf and returns its magic
// and body, a view into buf. buf bounds the record: a declared body longer
// than len(buf) − controlOverhead is refused after the 8-byte prefix, so a
// peer's length field never sizes an allocation or a read. r is read for
// exactly the record's bytes and nothing after them.
func readControl(r io.Reader, buf []byte) (magic string, body []byte, err error) {
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return "", nil, err
	}
	n := binary.BigEndian.Uint32(buf[4:])
	if bound := len(buf) - controlOverhead; uint64(n) > uint64(bound) {
		return "", nil, fmt.Errorf("%q body of %d bytes, bound %d", buf[:4], n, bound)
	}
	end := 8 + int(n)
	if _, err := io.ReadFull(r, buf[8:end+4]); err != nil {
		return "", nil, err
	}
	if crc32.ChecksumIEEE(buf[:end]) != binary.BigEndian.Uint32(buf[end:]) {
		return "", nil, fmt.Errorf("%q checksum", buf[:4])
	}
	return string(buf[:4]), buf[8:end], nil
}
