package wal

import (
	"bytes"
	"testing"

	"repro/internal/change"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// FuzzWALRecordDecode: arbitrary bytes fed to the frame decoder and the
// step payload decoder must error cleanly, never panic; accepted frames
// must re-encode to the same bytes.
func FuzzWALRecordDecode(f *testing.F) {
	step := change.Step{
		At: timestamp.MustParse("1Jan97"),
		Ops: change.Set{
			change.CreNode{Node: 2, Value: value.Str("Hakata")},
			change.AddArc{Parent: 1, Label: "restaurant", Child: 2},
		},
	}
	valid := appendFrame(nil, 1, change.AppendStep(nil, step))
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // torn CRC
	f.Add(valid[:3])            // torn length prefix
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f}) // absurd length
	f.Add(appendFrame(nil, 99, nil))      // empty payload
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, payload, n, err := decodeFrame(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("decodeFrame consumed %d of %d bytes", n, len(data))
		}
		if again := appendFrame(nil, seq, payload); string(again) != string(data[:n]) {
			t.Fatal("accepted frame does not re-encode identically")
		}
		// A syntactically valid payload must decode without panicking;
		// errors are fine (the fuzzer forges CRCs for arbitrary bodies).
		if step, m, err := change.DecodeStep(payload); err == nil {
			if m > len(payload) {
				t.Fatalf("DecodeStep consumed %d of %d bytes", m, len(payload))
			}
			change.AppendStep(nil, step) // re-encode must not panic
		}
	})
}

// FuzzFileFrame: UnframeFile must reject or accept arbitrary bytes under
// any magic without panicking, and a body it accepts must frame back to
// the input.
func FuzzFileFrame(f *testing.F) {
	valid := FrameFile(checkpointMagic, []byte{7, 's', 'n', 'a', 'p'})
	f.Add(checkpointMagic, valid)
	f.Add(checkpointMagic, valid[:len(valid)-1]) // torn CRC
	f.Add(checkpointMagic, valid[:len(checkpointMagic)])
	f.Add([]byte("DSEG1\n"), valid) // wrong magic
	f.Add([]byte{}, FrameFile(nil, nil))
	f.Fuzz(func(t *testing.T, magic, data []byte) {
		body, err := UnframeFile(magic, data)
		if err != nil {
			return
		}
		if again := FrameFile(magic, body); !bytes.Equal(again, data) {
			t.Fatalf("accepted %x frames back to %x", data, again)
		}
	})
}
