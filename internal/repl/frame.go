// Package repl implements primary/replica replication of append-only
// change-set logs — the paper's OEM histories (Section 2.2) shipped as
// deltas, the propagation model argued for in "On Graph Deltas for
// Historical Queries".
//
// A primary appends opaque (name, payload) records to a single replication
// oplog (an internal/wal.Log) and streams them to followers, which append
// the very same bytes to their own oplogs and apply them to a pluggable
// State. Byte-identical histories are therefore guaranteed by
// construction: a follower's oplog is always a verbatim prefix of the
// primary's. A client write is acknowledged only once a configurable
// quorum of followers has durably appended it (AckMode).
//
// Promotion is epoch-fenced: every frame carries the sender's epoch, a
// monotone counter persisted per node and bumped by Promote. Receivers
// reject lower-epoch senders and adopt higher epochs, so a deposed
// primary's appends are fenced the moment it hears from (or is heard by)
// anyone from the new epoch.
package repl

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/change"
)

// Frame types. One stream direction carries Welcome/Snapshot/Record/Commit
// (primary→follower), the other Hello/Ack/Reject (follower→primary);
// Reject can flow either way.
const (
	// FrameHello opens a session (follower→primary): Epoch = follower
	// epoch, Seq = follower's last oplog seq, Commit = epoch of the
	// follower's last record (divergence check), Payload = magic + node id.
	FrameHello byte = 1
	// FrameWelcome accepts a session: Seq = primary's last seq, Commit =
	// commit watermark, Payload = magic + advertised client address.
	FrameWelcome byte = 2
	// FrameSnapshot resets the follower: Payload = state snapshot covering
	// every record with seq <= Seq; Commit = epoch of the record at Seq.
	FrameSnapshot byte = 3
	// FrameRecord ships one oplog record: Seq = its sequence, Commit = the
	// current commit watermark, Payload = the verbatim oplog record bytes.
	FrameRecord byte = 4
	// FrameCommit advances the commit watermark without a record (also the
	// stream heartbeat): Seq = primary's last seq, Commit = watermark.
	FrameCommit byte = 5
	// FrameAck acknowledges durable append of every record with seq <= Seq.
	FrameAck byte = 6
	// FrameReject refuses a lower-epoch peer; Epoch is the rejecter's.
	FrameReject byte = 7
)

// protoMagic guards Hello/Welcome payloads against cross-protocol dials.
const protoMagic = "QREPL1\n"

// DefaultMaxFrame caps a frame payload (snapshots can be large).
const DefaultMaxFrame = 64 << 20

// ErrBadFrame reports a torn, corrupt, or oversized frame.
var ErrBadFrame = errors.New("repl: bad frame")

// crcTable is CRC-32C, matching the WAL's record framing.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Frame is one replication wire frame:
//
//	[1 type][uvarint epoch][uvarint seq][uvarint commit]
//	[uvarint len(payload)][payload][4-byte LE CRC-32C of everything prior]
//
// The field meanings per type are documented on the Frame* constants.
type Frame struct {
	Type    byte
	Epoch   uint64
	Seq     uint64
	Commit  uint64
	Payload []byte
}

// AppendFrame appends the encoding of f to dst.
func AppendFrame(dst []byte, f Frame) []byte {
	start := len(dst)
	dst = append(dst, f.Type)
	dst = binary.AppendUvarint(dst, f.Epoch)
	dst = binary.AppendUvarint(dst, f.Seq)
	dst = binary.AppendUvarint(dst, f.Commit)
	dst = binary.AppendUvarint(dst, uint64(len(f.Payload)))
	dst = append(dst, f.Payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], crcTable))
}

// WriteFrame writes one frame as a single Write call, so byte-offset fault
// injection (faults.CutAfterBytes, faults.ConnFault.Torn) can sever a
// stream at any point inside exactly one frame.
func WriteFrame(w io.Writer, f Frame) error {
	buf := AppendFrame(make([]byte, 0, 64+len(f.Payload)), f)
	if _, err := w.Write(buf); err != nil {
		return err
	}
	return nil
}

// ReadFrame reads one frame from br, validating its CRC.
func ReadFrame(br *bufio.Reader, maxPayload int) (Frame, error) {
	hdr := make([]byte, 0, 64)
	t, err := br.ReadByte()
	if err != nil {
		return Frame{}, err
	}
	hdr = append(hdr, t)
	var fields [4]uint64
	for i := range fields {
		v, raw, err := readUvarint(br)
		if err != nil {
			return Frame{}, fmt.Errorf("%w: header: %v", ErrBadFrame, err)
		}
		fields[i] = v
		hdr = append(hdr, raw...)
	}
	plen := fields[3]
	if plen > uint64(maxPayload) {
		return Frame{}, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrBadFrame, plen, maxPayload)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return Frame{}, fmt.Errorf("%w: payload: %v", ErrBadFrame, err)
	}
	var sumBuf [4]byte
	if _, err := io.ReadFull(br, sumBuf[:]); err != nil {
		return Frame{}, fmt.Errorf("%w: checksum: %v", ErrBadFrame, err)
	}
	crc := crc32.Update(crc32.Checksum(hdr, crcTable), crcTable, payload)
	if crc != binary.LittleEndian.Uint32(sumBuf[:]) {
		return Frame{}, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	if len(payload) == 0 {
		payload = nil
	}
	return Frame{
		Type: t, Epoch: fields[0], Seq: fields[1], Commit: fields[2], Payload: payload,
	}, nil
}

// readUvarint reads one uvarint, returning both the value and its raw
// bytes (needed for the running CRC).
func readUvarint(br *bufio.Reader) (uint64, []byte, error) {
	var raw []byte
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			return 0, nil, err
		}
		raw = append(raw, b)
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, raw, nil
		}
		shift += 7
	}
	return 0, nil, errors.New("uvarint too long")
}

// helloPayload / welcomePayload carry the protocol magic plus one string.
func handshakePayload(s string) []byte {
	return append([]byte(protoMagic), s...)
}

func parseHandshake(payload []byte) (string, bool) {
	if len(payload) < len(protoMagic) || string(payload[:len(protoMagic)]) != protoMagic {
		return "", false
	}
	return string(payload[len(protoMagic):]), true
}

// Oplog records. The replication oplog stores frames whose payload is:
//
//	[uvarint epoch][string name][uvarint len(data)][data]
//
// epoch is the primary's epoch at append time (the divergence detector),
// name routes the record to a database/subscription, and data is the
// opaque unit the State applies (a QSS poll record for the QSS layer; a
// change.Step for the tests' store-backed state). Followers append these
// bytes verbatim.

// AppendOplogRecord appends the oplog encoding of one record to dst.
func AppendOplogRecord(dst []byte, epoch uint64, name string, data []byte) []byte {
	dst = binary.AppendUvarint(dst, epoch)
	dst = change.AppendString(dst, name)
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	return append(dst, data...)
}

// DecodeOplogRecord parses one oplog record (data aliases the input).
func DecodeOplogRecord(payload []byte) (epoch uint64, name string, data []byte, err error) {
	epoch, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, "", nil, fmt.Errorf("%w: record epoch", ErrBadFrame)
	}
	off := n
	name, sn, err := change.DecodeString(payload[off:])
	if err != nil {
		return 0, "", nil, fmt.Errorf("%w: record name: %v", ErrBadFrame, err)
	}
	off += sn
	dlen, dn := binary.Uvarint(payload[off:])
	if dn <= 0 {
		return 0, "", nil, fmt.Errorf("%w: record data length", ErrBadFrame)
	}
	off += dn
	if uint64(len(payload)-off) != dlen {
		return 0, "", nil, fmt.Errorf("%w: record data length %d != %d", ErrBadFrame, dlen, len(payload)-off)
	}
	return epoch, name, payload[off:], nil
}
