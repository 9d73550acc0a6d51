package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/timestamp"
	"repro/internal/wal"
)

// FuzzSegmentFiles holds the decoders of what a store reads from disk — a
// sealed segment (.seg), its index (.idx) and the tail checkpoint's
// payload — to: any input gives an error or a value and never panics; a
// decoded value encodes to bytes that decode to an equal value, and
// encoding that value again gives the same bytes. The input need not be
// canonical. Each input is tried as a whole file and as a body framed with
// each file's magic (and checksum), so the fuzzer reaches the body decoders
// past the CRC.
func FuzzSegmentFiles(f *testing.F) {
	dir := f.TempDir()
	guide, ids := guidegen.PaperGuide()
	st, err := Create(dir, doem.New(guide), &wal.Options{Sync: wal.SyncNever}, &Policy{SealAnnotations: 7})
	if err != nil {
		f.Fatal(err)
	}
	for _, step := range guidegen.PaperHistory(ids) {
		if err := st.Apply(step.At, step.Ops); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		f.Fatal(err)
	}
	payload, _, ok, err := st.tail.LastCheckpoint()
	if err != nil || !ok {
		f.Fatalf("no tail checkpoint: %v", err)
	}
	st.Close()
	f.Add(payload)
	f.Add(payload[len(ckptMagic):]) // the body alone
	for _, name := range []string{segFileName(1), segFileName(2), idxFileName(1), idxFileName(2)} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[len(segMagic) : len(data)-4]) // the body alone
	}
	// A CRC-valid index whose live arcs are out of order.
	data, err := os.ReadFile(filepath.Join(dir, idxFileName(1)))
	if err != nil {
		f.Fatal(err)
	}
	id, start, end, x, err := decodeSegIndex(data)
	if err != nil {
		f.Fatal(err)
	}
	x.live[0], x.live[1] = x.live[1], x.live[0]
	f.Add(encodeSegIndex(id, start, end, x))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, wal.FrameFile(segMagic, data)} {
			checkSegData(t, in)
		}
		for _, in := range [][]byte{data, wal.FrameFile(idxMagic, data)} {
			checkSegIndex(t, in)
		}
		for _, in := range [][]byte{data, append(slices.Clip(ckptMagic), data...)} {
			checkCheckpoint(t, in)
		}
	})
}

// sameSegData compares decoded segments: the base snapshot by oem Equal,
// the rest field by field.
func sameSegData(a, b *segData) bool {
	if !a.base.Equal(b.base) {
		return false
	}
	x, y := *a, *b
	x.base, y.base = nil, nil
	return reflect.DeepEqual(x, y)
}

func checkSegData(t *testing.T, data []byte) {
	sd, err := decodeSegData(data)
	if err != nil {
		return
	}
	enc := encodeSegData(sd)
	back, err := decodeSegData(enc)
	if err != nil {
		t.Fatalf("encoded segment does not decode: %v", err)
	}
	// A NaN value is not equal to itself; compare only values that are.
	if again, _ := decodeSegData(data); sameSegData(sd, again) && !sameSegData(sd, back) {
		t.Fatalf("segment round trip changed the value:\n%+v\n%+v", sd, back)
	}
	if !bytes.Equal(enc, encodeSegData(back)) {
		t.Fatal("segment encoding is not a fixed point")
	}
}

func checkSegIndex(t *testing.T, data []byte) {
	id, start, end, x, err := decodeSegIndex(data)
	if err != nil {
		return
	}
	enc := encodeSegIndex(id, start, end, x)
	id2, start2, end2, back, err := decodeSegIndex(enc)
	if err != nil || id2 != id || !reflect.DeepEqual([]timestamp.Time{start, end}, []timestamp.Time{start2, end2}) {
		t.Fatalf("encoded index does not decode to its header: id %d, %d, %v", id, id2, err)
	}
	if _, _, _, again, _ := decodeSegIndex(data); reflect.DeepEqual(x, again) && !reflect.DeepEqual(x, back) {
		t.Fatalf("index round trip changed the value:\n%+v\n%+v", x, back)
	}
	if !bytes.Equal(enc, encodeSegIndex(id2, start2, end2, back)) {
		t.Fatal("index encoding is not a fixed point")
	}
}

// sameCheckpoint compares decoded checkpoints: the active segment by doem
// Equal, the rest field by field.
func sameCheckpoint(a, b *checkpoint) bool {
	return a.active.Equal(b.active) && reflect.DeepEqual(a.segs, b.segs) && reflect.DeepEqual(a.sum, b.sum)
}

func checkCheckpoint(t *testing.T, data []byte) {
	c, err := decodeCheckpoint(data)
	if err != nil {
		return
	}
	enc := encodeCheckpoint(c)
	back, err := decodeCheckpoint(enc)
	if err != nil {
		t.Fatalf("encoded checkpoint does not decode: %v", err)
	}
	// A NaN value is not equal to itself; compare only values that are.
	if again, _ := decodeCheckpoint(data); sameCheckpoint(c, again) && !sameCheckpoint(c, back) {
		t.Fatalf("checkpoint round trip changed the value:\n%+v\n%+v", c, back)
	}
	if !bytes.Equal(enc, encodeCheckpoint(back)) {
		t.Fatal("checkpoint encoding is not a fixed point")
	}
}
