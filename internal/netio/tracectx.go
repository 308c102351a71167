package netio

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"extremenc/internal/obs/trace"
)

// Traced sessions (hsFlagTrace) prefix every record with a 12-byte round
// prelude:
//
//	u64 round span ID | u32 CRC over the 8 ID bytes
//
// naming the pump round that encoded the record. The prelude has its own
// CRC so line damage to the causal link is detected exactly like a damaged
// length prefix (framing loss → reconnect) instead of silently attributing
// records to a phantom round. It is per-record framing, not a control record.
const recordPreludeLen = 8 + 4

// putRecordPrelude fills a 12-byte round prelude for a traced record.
func putRecordPrelude(dst []byte, round trace.SpanID) {
	binary.BigEndian.PutUint64(dst, uint64(round))
	binary.BigEndian.PutUint32(dst[8:], crc32.ChecksumIEEE(dst[:8]))
}

// parseRecordPrelude validates a 12-byte round prelude. A CRC mismatch is
// framing loss: the reader cannot trust the causal link (or its own
// position in the stream) and must resynchronize by reconnecting.
func parseRecordPrelude(buf []byte) (trace.SpanID, error) {
	if crc32.ChecksumIEEE(buf[:8]) != binary.BigEndian.Uint32(buf[8:]) {
		return 0, fmt.Errorf("%w: round prelude checksum", ErrRecordLength)
	}
	return trace.SpanID(binary.BigEndian.Uint64(buf)), nil
}
