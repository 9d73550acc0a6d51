package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/timestamp"
	"repro/internal/wal"
)

// FuzzSegmentFiles holds the decoders of the files a store reads from disk
// — a sealed segment (.seg), its index (.idx) and the STATE summary — to:
// any input gives an error or a value and never panics; a decoded value
// encodes to bytes that decode to an equal value, and encoding that value
// again gives the same bytes. The input need not be canonical. Each input
// is tried as a whole file and as a body framed with each file's magic and
// checksum, so the fuzzer reaches the body decoders past the CRC.
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
	st.Close()
	for _, name := range []string{segFileName(1), segFileName(2), idxFileName(1), idxFileName(2), stateName} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[len(segMagic) : len(data)-4]) // the body alone
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, sealFrame(segMagic, data)} {
			checkSegData(t, in)
		}
		for _, in := range [][]byte{data, sealFrame(idxMagic, data)} {
			checkSegIndex(t, in)
		}
		for _, in := range [][]byte{data, sealFrame(stateMagic, data)} {
			checkState(t, in)
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
	enc, err := encodeSegData(sd)
	if err != nil {
		t.Fatalf("decoded segment does not encode: %v", err)
	}
	back, err := decodeSegData(enc)
	if err != nil {
		t.Fatalf("encoded segment does not decode: %v", err)
	}
	// A NaN value is not equal to itself; compare only values that are.
	if again, _ := decodeSegData(data); sameSegData(sd, again) && !sameSegData(sd, back) {
		t.Fatalf("segment round trip changed the value:\n%+v\n%+v", sd, back)
	}
	if enc2, err := encodeSegData(back); err != nil || !bytes.Equal(enc, enc2) {
		t.Fatalf("segment encoding is not a fixed point (err %v)", err)
	}
}

func checkSegIndex(t *testing.T, data []byte) {
	id, x, err := decodeSegIndex(data)
	if err != nil {
		return
	}
	// The bounds in an index header are not decoded; write fixed ones.
	start, end := timestamp.NegInf, timestamp.PosInf
	enc := encodeSegIndex(id, start, end, x)
	id2, back, err := decodeSegIndex(enc)
	if err != nil || id2 != id {
		t.Fatalf("encoded index does not decode: id %d, %d, %v", id, id2, err)
	}
	if _, again, _ := decodeSegIndex(data); reflect.DeepEqual(x, again) && !reflect.DeepEqual(x, back) {
		t.Fatalf("index round trip changed the value:\n%+v\n%+v", x, back)
	}
	if !bytes.Equal(enc, encodeSegIndex(id2, start, end, back)) {
		t.Fatal("index encoding is not a fixed point")
	}
}

func checkState(t *testing.T, data []byte) {
	st, err := decodeState(data)
	if err != nil {
		return
	}
	enc := encodeState(st)
	back, err := decodeState(enc)
	if err != nil {
		t.Fatalf("encoded state does not decode: %v", err)
	}
	if again, _ := decodeState(data); reflect.DeepEqual(st, again) && !reflect.DeepEqual(st, back) {
		t.Fatalf("state round trip changed the value:\n%+v\n%+v", st, back)
	}
	if !bytes.Equal(enc, encodeState(back)) {
		t.Fatal("state encoding is not a fixed point")
	}
}
