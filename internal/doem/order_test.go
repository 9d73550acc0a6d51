package doem

import (
	"testing"

	"repro/internal/change"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// orderBase builds the fixture the permutation tests mutate: a root with
// two children, one of which will be updated and one unlinked.
func orderBase(t *testing.T) *oem.Database {
	t.Helper()
	o := oem.New()
	n1, n2 := oem.NodeID(11), oem.NodeID(12)
	if err := o.CreateNodeWithID(n1, value.Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := o.CreateNodeWithID(n2, value.Str("old")); err != nil {
		t.Fatal(err)
	}
	if err := o.AddArc(o.Root(), "a", n1); err != nil {
		t.Fatal(err)
	}
	if err := o.AddArc(o.Root(), "old", n2); err != nil {
		t.Fatal(err)
	}
	return o
}

// permutations returns every ordering of ops (n! — keep n small).
func permutations(ops change.Set) []change.Set {
	if len(ops) <= 1 {
		return []change.Set{append(change.Set(nil), ops...)}
	}
	var out []change.Set
	for i := range ops {
		rest := make(change.Set, 0, len(ops)-1)
		rest = append(rest, ops[:i]...)
		rest = append(rest, ops[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append(change.Set{ops[i]}, p...))
		}
	}
	return out
}

// TestApplyOrderIndependence asserts Def. 2.2: the operations of one
// change set have no intrinsic order, so every permutation of the set must
// produce an identical DOEM database — identical annotations, identical
// O_t(D) at every instant.
func TestApplyOrderIndependence(t *testing.T) {
	tApply := timestamp.MustParse("5Jan97")
	n5 := oem.NodeID(50)
	set := change.Set{
		change.CreNode{Node: n5, Value: value.Str("new")},
		change.AddArc{Parent: oem.NodeID(1), Label: "x", Child: n5},
		change.UpdNode{Node: oem.NodeID(11), Value: value.Int(9)},
		change.RemArc{Parent: oem.NodeID(1), Label: "old", Child: oem.NodeID(12)},
	}

	var ref *Database
	checkTimes := []timestamp.Time{
		timestamp.NegInf, tApply.Add(-1e9), tApply, tApply.Add(1e9), timestamp.PosInf,
	}
	for i, perm := range permutations(set) {
		d := New(orderBase(t))
		if err := d.Apply(tApply, perm); err != nil {
			t.Fatalf("permutation %d: %v", i, err)
		}
		if ref == nil {
			ref = d
			continue
		}
		if !d.Equal(ref) {
			t.Fatalf("permutation %d: DOEM database differs from permutation 0:\n%s\nvs\n%s", i, d, ref)
		}
		for _, at := range checkTimes {
			if !d.SnapshotAt(at).Equal(ref.SnapshotAt(at)) {
				t.Fatalf("permutation %d: O_t(D) differs at %s", i, at)
			}
		}
	}
}

// TestApplyCreThenUpdSameSetRejected pins the invariant the order audit
// leans on: creating and updating one node in the same change set is
// rejected — in every input order. If a cre+upd pair were admitted, the
// upd annotation's old value would be captured from a node that does not
// exist in the pre-step snapshot and the annotation trail would hold two
// node annotations at one timestamp, so order independence (Def. 2.2)
// depends on this rejection staying order-independent itself.
func TestApplyCreThenUpdSameSetRejected(t *testing.T) {
	tApply := timestamp.MustParse("5Jan97")
	n5 := oem.NodeID(50)
	base := change.Set{
		change.CreNode{Node: n5, Value: value.Str("v1")},
		change.UpdNode{Node: n5, Value: value.Str("v2")},
		change.AddArc{Parent: oem.NodeID(1), Label: "x", Child: n5},
	}
	for i, perm := range permutations(base) {
		d := New(orderBase(t))
		before := d.StatsVersion()
		if err := d.Apply(tApply, perm); err == nil {
			t.Fatalf("permutation %d: cre+upd of one node in a single set was not rejected", i)
		}
		if d.StatsVersion() != before {
			t.Fatalf("permutation %d: failed Apply advanced the version counter", i)
		}
		if d.Has(n5) {
			t.Fatalf("permutation %d: failed Apply leaked node %s into the database", i, n5)
		}
	}
}
