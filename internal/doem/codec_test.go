package doem

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
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
	data := Append(nil, d)
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
	if !bytes.Equal(Append(nil, back), data) {
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
	valid := Append(nil, newFixture(t).doem(t))
	noSteps := AppendHistory(nil, oem.New(), nil)
	// O_0 is the change set that builds it from oem.New(); one that does
	// anything else is corrupt.
	pair := func(ops ...change.Op) []byte { return append(change.AppendSet(nil, ops), 0) }
	for name, data := range map[string][]byte{
		"empty":            nil,
		"not a pair":       []byte("not json"),
		"bad O_0":          append([]byte{5}, "[1,2]"...),
		"truncated":        valid[:len(valid)-1],
		"huge count":       append(noSteps[:len(noSteps)-1:len(noSteps)-1], 0xff, 0xff, 0xff, 0xff, 0x0f),
		"legacy JSON":      []byte(`{"current":{"root":1,"nodes":[{"id":1,"kind":"complex"}],"arcs":[]}}`),
		"second root":      pair(change.CreNode{Node: 1, Value: value.Complex()}),
		"id 0":             pair(change.CreNode{Node: 0, Value: value.Int(1)}),
		"node twice":       pair(change.CreNode{Node: 2, Value: value.Int(1)}, change.CreNode{Node: 2, Value: value.Int(1)}),
		"missing endpoint": pair(change.AddArc{Parent: 1, Label: "a", Child: 2}),
		"atomic parent":    pair(change.CreNode{Node: 2, Value: value.Int(1)}, change.AddArc{Parent: 2, Label: "a", Child: 1}),
		"upd off the root": pair(change.CreNode{Node: 2, Value: value.Int(1)}, change.UpdNode{Node: 2, Value: value.Int(2)}),
		"remArc in O_0":    pair(change.RemArc{Parent: 1, Label: "a", Child: 1}),
	} {
		if _, _, err := Decode(data); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
	// A pair whose O_0 is JSON is refused as the layout it is.
	js := `{"root":1,"nodes":[{"id":1,"kind":"complex"}],"arcs":[]}`
	old := append(append(binary.AppendUvarint(nil, uint64(len(js))), js...), 0)
	if _, _, err := Decode(old); err == nil || !strings.Contains(err.Error(), "older version") {
		t.Errorf("JSON O_0: err = %v, want one naming the older layout", err)
	}
	// O_0 with an object the root does not reach is not O_0 of a history
	// that changes anything.
	o := oem.New()
	o.CreateNode(value.Int(1))
	h := change.History{{At: timestamp.MustParse("1Jan97"), Ops: change.Set{
		change.CreNode{Node: 7, Value: value.Int(7)},
		change.AddArc{Parent: o.Root(), Label: "a", Child: 7},
	}}}
	if _, _, err := Decode(AppendHistory(nil, o, h)); err == nil {
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
		f.Add(Append(nil, d))
	}
	initial, h := guidegen.GenerateChurn(3, 12, 6, 4)
	d, err := FromHistory(initial, h)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(Append(nil, d))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, _, err := Decode(data)
		if err != nil {
			return
		}
		enc := Append(nil, d)
		back, n, err := Decode(enc)
		if err != nil || n != len(enc) {
			t.Fatalf("encoding does not decode: n=%d of %d, %v", n, len(enc), err)
		}
		// A NaN value is not Equal to itself, so Equal is an oracle only
		// for databases Equal to themselves.
		if d.Equal(d) && !back.Equal(d) {
			t.Fatalf("decode(encode(D)) != D:\n%s\n%s", d, back)
		}
		if !bytes.Equal(Append(nil, back), enc) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}

// TestCodecKeepsAtomicRoot: a root updated to an atomic value is O_0's
// root after Truncate, and the stored form keeps that value.
func TestCodecKeepsAtomicRoot(t *testing.T) {
	d := New(oem.New())
	t1, t2 := timestamp.MustParse("1Jan97"), timestamp.MustParse("2Jan97")
	if err := d.Apply(t1, change.Set{change.UpdNode{Node: d.Root(), Value: value.Int(5)}}); err != nil {
		t.Fatal(err)
	}
	td, err := d.Truncate(t1)
	if err != nil {
		t.Fatal(err)
	}
	check := func(d *Database) {
		t.Helper()
		back := roundTrip(t, d)
		if v, _ := back.Original().Value(back.Root()); !v.Equal(value.Int(5)) {
			t.Errorf("decoded O_0 root = %s, want 5", v)
		}
	}
	check(td)
	if err := td.Apply(t2, change.Set{change.UpdNode{Node: td.Root(), Value: value.Str("six")}}); err != nil {
		t.Fatal(err)
	}
	check(td)
}

// TestAppendPinned pins the stored form of the paper's database (Figure
// 3 and its history), so the layout cannot change without this test
// saying so.
func TestAppendPinned(t *testing.T) {
	db, ids := guidegen.PaperGuide()
	d, err := FromHistory(db, guidegen.PaperHistory(ids))
	if err != nil {
		t.Fatal(err)
	}
	// O_0: 30 (0x1e) operations building Figure 3 from oem.New().
	const want = "1e0002000003050f42616e676b6f6b2043756973696e65000403140005050454" +
		"686169000600000705064c7974746f6e0008050950616c6f20416c746f000900" +
		"000a05054a616e7461000b05086d6f646572617465000c050a313230204c7974" +
		"746f6e000d00000e050c757375616c6c792066756c6c000f050c4c7974746f6e" +
		"206c6f74203202010a72657374617572616e740202010a72657374617572616e" +
		"74090202046e616d650302020570726963650402020763756973696e65050202" +
		"0761646472657373060202077061726b696e670d020606737472656574070206" +
		"0463697479080209046e616d650a02090570726963650b020907616464726573" +
		"730c0209077061726b696e670d020d07636f6d6d656e740e020d076164647265" +
		"73730f020d0b6e65617262792d6561747302" +
		// H: 3 steps.
		"030080a4cdac0605010403280064000065050648616b61746102010a72657374" +
		"617572616e74640264046e616d65650080bcf7ac0602006605096e6565642069" +
		"6e666f026407636f6d6d656e746600808e97ad06010309077061726b696e670d"
	if got := hex.EncodeToString(Append(nil, d)); got != want {
		t.Errorf("Append(paper DOEM) =\n%s\npinned\n%s", got, want)
	}
}
