package repl

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
)

// DecodeFrame is the reference decoder the frame tests and
// FuzzReplFrameDecode hold ReadFrame, the production stream decoder, to:
// it parses the first frame in data, returning it (payload aliases data)
// and the bytes consumed. maxPayload bounds the payload length a corrupt
// prefix can claim.
func DecodeFrame(data []byte, maxPayload int) (Frame, int, error) {
	if len(data) < 1 {
		return Frame{}, 0, fmt.Errorf("%w: empty", ErrBadFrame)
	}
	f := Frame{Type: data[0]}
	off := 1
	var fields [4]uint64
	for i := range fields {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return Frame{}, 0, fmt.Errorf("%w: truncated header", ErrBadFrame)
		}
		fields[i] = v
		off += n
	}
	f.Epoch, f.Seq, f.Commit = fields[0], fields[1], fields[2]
	plen := fields[3]
	if plen > uint64(maxPayload) {
		return Frame{}, 0, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrBadFrame, plen, maxPayload)
	}
	total := off + int(plen) + 4
	if len(data) < total {
		return Frame{}, 0, fmt.Errorf("%w: truncated payload", ErrBadFrame)
	}
	f.Payload = data[off : off+int(plen)]
	sum := binary.LittleEndian.Uint32(data[total-4:])
	if crc32.Checksum(data[:total-4], crcTable) != sum {
		return Frame{}, 0, fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	if len(f.Payload) == 0 {
		f.Payload = nil
	}
	return f, total, nil
}

func sampleFrames() []Frame {
	return []Frame{
		{Type: FrameHello, Epoch: 0, Seq: 0, Commit: 0, Payload: handshakePayload("n1")},
		{Type: FrameWelcome, Epoch: 1, Seq: 42, Commit: 40, Payload: handshakePayload("host:123")},
		{Type: FrameSnapshot, Epoch: 7, Seq: 1 << 40, Commit: 3, Payload: bytes.Repeat([]byte{0xab}, 4096)},
		{Type: FrameRecord, Epoch: 2, Seq: 99, Commit: 98, Payload: []byte("payload")},
		{Type: FrameCommit, Epoch: 1<<63 + 5, Seq: 10, Commit: 10},
		{Type: FrameAck, Epoch: 3, Seq: 1},
		{Type: FrameReject, Epoch: 9},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		enc := AppendFrame(nil, f)
		got, n, err := DecodeFrame(enc, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("decode %d: %v", f.Type, err)
		}
		if n != len(enc) {
			t.Fatalf("decode %d consumed %d of %d bytes", f.Type, n, len(enc))
		}
		if got.Type != f.Type || got.Epoch != f.Epoch || got.Seq != f.Seq ||
			got.Commit != f.Commit || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("decode %d: got %+v want %+v", f.Type, got, f)
		}
	}
}

func TestFrameReadWrite(t *testing.T) {
	var buf bytes.Buffer
	frames := sampleFrames()
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	br := bufio.NewReader(&buf)
	for _, want := range frames {
		got, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("read %d: %v", want.Type, err)
		}
		if got.Type != want.Type || got.Epoch != want.Epoch || got.Seq != want.Seq ||
			got.Commit != want.Commit || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("read %d: got %+v want %+v", want.Type, got, want)
		}
	}
}

func TestFrameDecodeMultiple(t *testing.T) {
	frames := sampleFrames()
	var enc []byte
	for _, f := range frames {
		enc = AppendFrame(enc, f)
	}
	off := 0
	for i, want := range frames {
		got, n, err := DecodeFrame(enc[off:], DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Seq != want.Seq {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
		off += n
	}
	if off != len(enc) {
		t.Fatalf("consumed %d of %d bytes", off, len(enc))
	}
}

func TestFrameDecodeCorruption(t *testing.T) {
	enc := AppendFrame(nil, Frame{Type: FrameRecord, Epoch: 3, Seq: 17, Commit: 16, Payload: []byte("hello world")})

	// Every truncation must fail (a torn stream never yields a frame).
	for i := 0; i < len(enc); i++ {
		if _, _, err := DecodeFrame(enc[:i], DefaultMaxFrame); err == nil {
			t.Fatalf("truncation to %d bytes decoded", i)
		}
	}
	// Every single-bit flip must fail the CRC (or the header parse).
	for i := 0; i < len(enc); i++ {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x01
		if f, _, err := DecodeFrame(mut, DefaultMaxFrame); err == nil {
			t.Fatalf("bit flip at %d decoded as %+v", i, f)
		}
	}
	// Payload length beyond the cap is rejected before allocation.
	if _, _, err := DecodeFrame(enc, 4); err == nil || !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized payload: %v", err)
	}
	if _, err := ReadFrame(bufio.NewReader(bytes.NewReader(enc)), 4); err == nil {
		t.Fatal("ReadFrame accepted oversized payload")
	}
}

func TestHandshakePayload(t *testing.T) {
	s, ok := parseHandshake(handshakePayload("node-a"))
	if !ok || s != "node-a" {
		t.Fatalf("round trip: %q %v", s, ok)
	}
	if _, ok := parseHandshake([]byte("GET / HTTP/1.1\r\n")); ok {
		t.Fatal("accepted foreign protocol bytes")
	}
	if _, ok := parseHandshake(nil); ok {
		t.Fatal("accepted empty payload")
	}
}

func TestOplogRecordRoundTrip(t *testing.T) {
	rec := AppendOplogRecord(nil, 5, "db/main", []byte("step-bytes"))
	epoch, name, data, err := DecodeOplogRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 5 || name != "db/main" || string(data) != "step-bytes" {
		t.Fatalf("got %d %q %q", epoch, name, data)
	}
	// Empty data and empty name are legal.
	rec = AppendOplogRecord(nil, 0, "", nil)
	if _, _, _, err := DecodeOplogRecord(rec); err != nil {
		t.Fatal(err)
	}
	// Truncations and trailing bytes are not.
	rec = AppendOplogRecord(nil, 9, strings.Repeat("x", 40), []byte("data"))
	for i := 0; i < len(rec); i++ {
		if _, _, _, err := DecodeOplogRecord(rec[:i]); err == nil {
			t.Fatalf("truncation to %d decoded", i)
		}
	}
	if _, _, _, err := DecodeOplogRecord(append(rec, 0)); err == nil {
		t.Fatal("trailing byte decoded")
	}
}
