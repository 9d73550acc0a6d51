package doem

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/change"
	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// roundTrip encodes d, decodes the bytes, and requires the decoded
// database to be d again: Equal, with the same OutAll order, step times
// and MaxID, and encoding to the same bytes.
func roundTrip(t *testing.T, d *Database) *Database {
	t.Helper()
	data, err := Append(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	back, n, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) {
		t.Fatalf("decoded %d of %d bytes", n, len(data))
	}
	if !d.Equal(back) || !back.Equal(d) {
		t.Fatalf("round trip changed the database:\nin:\n%s\nout:\n%s", d, back)
	}
	for _, id := range d.AllNodeIDs() {
		if got, want := back.OutAll(id), d.OutAll(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("OutAll(%s) = %v, want %v", id, got, want)
		}
	}
	if got, want := back.Steps(), d.Steps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Steps() = %v, want %v", got, want)
	}
	if got, want := back.MaxID(), d.MaxID(); got != want {
		t.Fatalf("MaxID() = %s, want %s", got, want)
	}
	again, err := Append(nil, back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Fatal("encoding the decoded database gives different bytes")
	}
	return back
}

func TestCodecRoundTrip(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	back := roundTrip(t, d)
	// The reloaded database remains fully functional: snapshots, history
	// extraction and further Apply all work.
	if !back.SnapshotAt(f.t1).Equal(d.SnapshotAt(f.t1)) {
		t.Error("snapshot differs after reload")
	}
	if !back.Feasible() {
		t.Error("reloaded database infeasible")
	}
	if err := back.Apply(timestamp.MustParse("9Jan97"), change.Set{
		change.UpdNode{Node: f.price, Value: value.Int(30)},
	}); err != nil {
		t.Errorf("Apply after reload: %v", err)
	}
}

func TestCodecRoundTripWithDeletions(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	if err := d.Apply(timestamp.MustParse("9Jan97"), change.Set{
		change.RemArc{Parent: f.n2, Label: "comment", Child: f.n5},
	}); err != nil {
		t.Fatal(err)
	}
	back := roundTrip(t, d)
	if v, ok := back.Value(f.n5); !ok || !v.Equal(value.Str("need info")) {
		t.Errorf("deleted node value after reload = %s,%v", v, ok)
	}
}

func TestCodecRoundTripEmpty(t *testing.T) {
	roundTrip(t, New(newFixture(t).db))
}

// TestCodecRoundTripChurn runs the round trip on adversarial histories
// (shared children, cycles, subtrees cut loose, arcs removed and re-added),
// as built and after a Truncate, with one step that changed nothing.
func TestCodecRoundTripChurn(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		initial, h := guidegen.GenerateChurn(seed, 40, 30, 6)
		if len(h) < 4 {
			t.Fatalf("seed %d: only %d steps", seed, len(h))
		}
		// An empty step between the third and the fourth.
		empty := change.Step{At: h[2].At.Add(3600e9)}
		h = append(h[:3:3], append(change.History{empty}, h[3:]...)...)
		d, err := FromHistory(initial, h)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		roundTrip(t, d)
		td, err := d.Truncate(h[len(h)/2].At)
		if err != nil {
			t.Fatalf("seed %d: truncate: %v", seed, err)
		}
		roundTrip(t, td)
	}
}

func TestDecodeGarbage(t *testing.T) {
	valid, err := Append(nil, newFixture(t).doem(t))
	if err != nil {
		t.Fatal(err)
	}
	noSteps, err := AppendHistory(nil, oem.New(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"empty":       nil,
		"not a pair":  []byte("not json"),
		"bad O_0":     append([]byte{5}, "[1,2]"...),
		"truncated":   valid[:len(valid)-1],
		"huge count":  append(noSteps[:len(noSteps)-1:len(noSteps)-1], 0xff, 0xff, 0xff, 0xff, 0x0f),
		"legacy JSON": []byte(`{"current":{"root":1,"nodes":[{"id":1,"kind":"complex"}],"arcs":[]}}`),
	} {
		if _, _, err := Decode(data); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	// O_0 with an object the root does not reach is not O_0 of a history
	// that changes anything.
	o := oem.New()
	o.CreateNode(value.Int(1))
	h := change.History{{At: timestamp.MustParse("1Jan97"), Ops: change.Set{
		change.CreNode{Node: 7, Value: value.Int(7)},
		change.AddArc{Parent: o.Root(), Label: "a", Child: 7},
	}}}
	data, err := AppendHistory(nil, o, h)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(data); err == nil {
		t.Error("unreachable object in O_0 of a changing history decoded")
	}
}

// TestCodecRoundTripUnreachable: a database without annotations is stored
// as its current snapshot; New has collected the object nothing reaches.
func TestCodecRoundTripUnreachable(t *testing.T) {
	o := oem.New()
	o.CreateNode(value.Int(1))
	d := New(o)
	if err := d.Apply(timestamp.MustParse("1Jan97"), nil); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, d)
}

// TestNewCollectsUnreachable: New drops the objects of O its root does not
// reach, so a database built from such an O and then changed is feasible
// and survives a round trip. A copy that kept them made Original() (which
// is collected) differ from the O the history was applied to.
func TestNewCollectsUnreachable(t *testing.T) {
	o := oem.New()
	stray := o.CreateNode(value.Int(1))
	d := New(o)
	if _, ok := d.Current().Value(stray); ok {
		t.Fatalf("New kept unreachable object %s", stray)
	}
	if _, ok := o.Value(stray); !ok {
		t.Fatal("New collected the caller's database instead of its copy")
	}
	n := d.MaxID() + 10
	err := d.Apply(timestamp.MustParse("1Jan97"), change.Set{
		change.CreNode{Node: n, Value: value.Int(7)},
		change.AddArc{Parent: d.Root(), Label: "a", Child: n},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible() {
		t.Fatal("database built by New and one step is not feasible")
	}
	roundTrip(t, d)
}

// TestFromHistoryRefusesInvalidSteps: the first step Apply refuses is
// reported as change.ErrInvalidHistory.
func TestFromHistoryRefusesInvalidSteps(t *testing.T) {
	f := newFixture(t)
	t4, t5 := timestamp.MustParse("9Jan97"), timestamp.MustParse("10Jan97")
	for name, extra := range map[string]change.History{
		"stale time": {{At: f.t2, Ops: change.Set{change.UpdNode{Node: f.price, Value: value.Int(1)}}}},
		"deleted node": {
			{At: t4, Ops: change.Set{change.RemArc{Parent: f.n2, Label: "comment", Child: f.n5}}},
			{At: t5, Ops: change.Set{change.UpdNode{Node: f.n5, Value: value.Int(1)}}},
		},
		"invalid op": {{At: t4, Ops: change.Set{change.AddArc{Parent: f.guide, Label: "restaurant", Child: 999}}}},
	} {
		h := append(append(change.History(nil), f.h...), extra...)
		_, err := FromHistory(f.db, h)
		if !errors.Is(err, change.ErrInvalidHistory) {
			t.Errorf("%s: err = %v, want change.ErrInvalidHistory", name, err)
		}
	}
}

// FuzzDOEMDecode: any input decodes to an error or a database, never a
// panic; a decoded database encodes, decodes back to an Equal database,
// and its encoding is a fixed point.
func FuzzDOEMDecode(f *testing.F) {
	fx := newFixture(f)
	for _, d := range []*Database{New(fx.db), fx.doem(f)} {
		data, err := Append(nil, d)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	initial, h := guidegen.GenerateChurn(3, 12, 6, 4)
	d, err := FromHistory(initial, h)
	if err != nil {
		f.Fatal(err)
	}
	data, err := Append(nil, d)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		d, _, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := Append(nil, d)
		if err != nil {
			t.Fatalf("decoded database does not encode: %v", err)
		}
		back, n, err := Decode(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("encoding does not decode: n=%d of %d, %v", n, len(enc), err)
		}
		// A NaN value is not Equal to itself, so Equal is an oracle only
		// for databases Equal to themselves.
		if d.Equal(d) && !back.Equal(d) {
			t.Fatalf("decode(encode(D)) != D:\n%s\n%s", d, back)
		}
		again, err := Append(nil, back)
		if err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not a fixed point (%v)", err)
		}
	})
}
