package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record framing. Each record in a segment file is one frame:
//
//	[4-byte LE body length][body][4-byte LE CRC-32C of body]
//
// where body = uvarint(seq) + payload. The CRC detects torn or bit-rotted
// tails; a frame that fails length, sequence, or CRC validation marks the
// end of the recoverable log prefix (see recoverSegments).

// castagnoli is the CRC-32C table (the polynomial used by iSCSI, ext4 and
// most modern log formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxRecordSize caps a single record body so corrupt length prefixes cannot
// trigger huge allocations during recovery.
const maxRecordSize = 1 << 28 // 256 MiB

// errTorn reports a frame that is truncated, corrupt, or out of sequence —
// the marker of a torn tail during recovery.
var errTorn = errors.New("wal: torn or corrupt record")

// appendFrame appends one framed record to dst.
func appendFrame(dst []byte, seq uint64, payload []byte) []byte {
	body := make([]byte, 0, binary.MaxVarintLen64+len(payload))
	body = binary.AppendUvarint(body, seq)
	body = append(body, payload...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(body, castagnoli))
}

// decodeFrame parses the first frame of data. It returns the record's
// sequence number and payload (aliasing data) and the total bytes consumed.
// Any truncation or checksum mismatch yields errTorn.
func decodeFrame(data []byte) (seq uint64, payload []byte, n int, err error) {
	if len(data) < 4 {
		return 0, nil, 0, fmt.Errorf("%w: short length prefix", errTorn)
	}
	bodyLen := binary.LittleEndian.Uint32(data)
	if bodyLen == 0 || bodyLen > maxRecordSize {
		return 0, nil, 0, fmt.Errorf("%w: implausible body length %d", errTorn, bodyLen)
	}
	total := 4 + int(bodyLen) + 4
	if len(data) < total {
		return 0, nil, 0, fmt.Errorf("%w: truncated body", errTorn)
	}
	body := data[4 : 4+bodyLen]
	sum := binary.LittleEndian.Uint32(data[4+bodyLen:])
	if crc32.Checksum(body, castagnoli) != sum {
		return 0, nil, 0, fmt.Errorf("%w: checksum mismatch", errTorn)
	}
	seq, vn := binary.Uvarint(body)
	if vn <= 0 {
		return 0, nil, 0, fmt.Errorf("%w: bad sequence varint", errTorn)
	}
	return seq, body[vn:], total, nil
}
