package lorel

import (
	"testing"

	"repro/internal/value"
)

// TestBindingKeyKindCollision: values of different kinds can render to the
// same text (Int(5) and Real(5) both print "5"); the dedup key carries the
// kind so such rows stay distinct.
func TestBindingKeyKindCollision(t *testing.T) {
	i := valueBinding(value.Int(5))
	r := valueBinding(value.Real(5))
	if ik, rk := i.appendKey(nil), r.appendKey(nil); string(ik) == string(rk) {
		t.Fatalf("Int(5) and Real(5) share dedup key %q", ik)
	}
}

// TestRowKeyNoSeparatorCollision: row keys are length-prefixed per
// component, so labels or values containing the join punctuation of the
// old Label=key; scheme cannot merge two distinct rows.
func TestRowKeyNoSeparatorCollision(t *testing.T) {
	cell := func(label string, v value.Value) Cell {
		return Cell{Label: label, b: valueBinding(v)}
	}
	cases := []struct {
		name string
		a, b Row
	}{
		{
			// Under the unprefixed scheme both rendered `a=v"x";b=v"y";`.
			"label-injection",
			Row{Cells: []Cell{cell("a", value.Str("x")), cell("b", value.Str("y"))}},
			Row{Cells: []Cell{cell(`a=v"x";b`, value.Str("y"))}},
		},
		{
			// The classic embedded-separator pair from the issue:
			// "a|b"+"c" vs "a"+"b|c".
			"value-separator",
			Row{Cells: []Cell{cell("X", value.Str("a|b")), cell("Y", value.Str("c"))}},
			Row{Cells: []Cell{cell("X", value.Str("a")), cell("Y", value.Str("b|c"))}},
		},
		{
			"kind-separator",
			Row{Cells: []Cell{cell("X", value.Int(5))}},
			Row{Cells: []Cell{cell("X", value.Real(5))}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if ak, bk := tc.a.appendKey(nil), tc.b.appendKey(nil); string(ak) == string(bk) {
				t.Fatalf("distinct rows share dedup key %q", ak)
			}
		})
	}
}
