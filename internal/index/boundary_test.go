package index

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// boundaryFixture builds a small history with every annotation kind:
//
//	O_0:  root --init--> n3 (value 7)
//	t1:   cre n2 (value 1), add root --item--> n2
//	t2:   upd n2 to 2
//	t3:   rem root --item--> n2, rem root --init--> n3
//	t4:   add root --item--> n2   (re-added)
func boundaryFixture(t *testing.T) (*doem.Database, oem.Arc, oem.Arc, oem.NodeID, []timestamp.Time) {
	t.Helper()
	o := oem.New()
	n3 := oem.NodeID(10)
	if err := o.CreateNodeWithID(n3, value.Int(7)); err != nil {
		t.Fatal(err)
	}
	if err := o.AddArc(o.Root(), "init", n3); err != nil {
		t.Fatal(err)
	}
	d := doem.New(o)

	n2 := oem.NodeID(20)
	t1 := timestamp.MustParse("2Jan97")
	t2 := timestamp.MustParse("4Jan97")
	t3 := timestamp.MustParse("6Jan97")
	t4 := timestamp.MustParse("8Jan97")
	steps := []struct {
		at  timestamp.Time
		ops change.Set
	}{
		{t1, change.Set{
			change.CreNode{Node: n2, Value: value.Int(1)},
			change.AddArc{Parent: d.Root(), Label: "item", Child: n2},
			// A second arc keeps n2 reachable across the t3 removal so
			// the t4 re-add is legal under the deleted-node discipline.
			change.AddArc{Parent: d.Root(), Label: "keep", Child: n2},
		}},
		{t2, change.Set{change.UpdNode{Node: n2, Value: value.Int(2)}}},
		{t3, change.Set{
			change.RemArc{Parent: d.Root(), Label: "item", Child: n2},
			change.RemArc{Parent: d.Root(), Label: "init", Child: n3},
		}},
		{t4, change.Set{change.AddArc{Parent: d.Root(), Label: "item", Child: n2}}},
	}
	for _, s := range steps {
		if err := d.Apply(s.at, s.ops); err != nil {
			t.Fatalf("apply %s: %v", s.at, err)
		}
	}
	itemArc := oem.Arc{Parent: d.Root(), Label: "item", Child: n2}
	initArc := oem.Arc{Parent: d.Root(), Label: "init", Child: n3}
	return d, itemArc, initArc, n2, []timestamp.Time{t1, t2, t3, t4}
}

// TestAtBoundarySemantics pins the inclusive <at T> convention of Section
// 4.2.2 at exact annotation timestamps, for all four annotation kinds, on
// the database and through the memo.
func TestAtBoundarySemantics(t *testing.T) {
	d, itemArc, initArc, n2, ts := boundaryFixture(t)
	t1, t2, t3, t4 := ts[0], ts[1], ts[2], ts[3]
	ig := NewGraph(d)
	sec := func(t timestamp.Time, off int64) timestamp.Time { return t.Add(timestampDur(off)) }

	cases := []struct {
		name     string
		at       timestamp.Time
		itemLive bool // add(t1), rem(t3), add(t4)
		initLive bool // in O_0, rem(t3)
		n2Value  int64
	}{
		{"before-cre", sec(t1, -1), false, true, 1},
		{"at-cre-add", t1, true, true, 1}, // add at exactly t1 is live (inclusive)
		{"after-add", sec(t1, 1), true, true, 1},
		{"before-upd", sec(t2, -1), true, true, 1},
		{"at-upd", t2, true, true, 2}, // upd at exactly t2 already shows the new value
		{"after-upd", sec(t2, 1), true, true, 2},
		{"before-rem", sec(t3, -1), true, true, 2},
		{"at-rem", t3, false, false, 2}, // rem at exactly t3 already removes the arc
		{"after-rem", sec(t3, 1), false, false, 2},
		{"before-readd", sec(t4, -1), false, false, 2},
		{"at-readd", t4, true, false, 2},
		{"after-readd", sec(t4, 1), true, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, g := range []lorel.Graph{d, ig} {
				kind := fmt.Sprintf("%T", g)
				if got := g.ArcLiveAt(itemArc, tc.at); got != tc.itemLive {
					t.Errorf("%s: ArcLiveAt(item, %s) = %v, want %v", kind, tc.at, got, tc.itemLive)
				}
				if got := g.ArcLiveAt(initArc, tc.at); got != tc.initLive {
					t.Errorf("%s: ArcLiveAt(init, %s) = %v, want %v", kind, tc.at, got, tc.initLive)
				}
				if got := g.ValueAt(n2, tc.at); !got.Equal(value.Int(tc.n2Value)) {
					t.Errorf("%s: ValueAt(n2, %s) = %s, want %d", kind, tc.at, got, tc.n2Value)
				}
				if got := slices.Contains(g.OutAt(d.Root(), tc.at), itemArc); got != tc.itemLive {
					t.Errorf("%s: item in OutAt(root, %s) = %v, want %v", kind, tc.at, got, tc.itemLive)
				}
			}
		})
	}
}

// TestAtBoundaryQueries exercises the same boundaries through the query
// evaluator's virtual <at T> step, on the database vs through the memo.
func TestAtBoundaryQueries(t *testing.T) {
	d, _, _, _, ts := boundaryFixture(t)
	raw := lorel.NewEngine()
	raw.Register("guide", d)
	idx := lorel.NewEngine()
	idx.Register("guide", NewGraph(d))

	var instants []timestamp.Time
	for _, s := range ts {
		instants = append(instants, s.Add(timestampDur(-1)), s, s.Add(timestampDur(1)))
	}
	for _, at := range instants {
		for _, tmpl := range []string{
			`select guide.<at %q>item`,
			`select guide.<at %q>init`,
			`select X from guide.<at %q>item X where X = 2`,
		} {
			q := fmt.Sprintf(tmpl, at.String())
			want, err := raw.Query(q)
			if err != nil {
				t.Fatalf("database %q: %v", q, err)
			}
			got, err := idx.Query(q)
			if err != nil {
				t.Fatalf("memo %q: %v", q, err)
			}
			if want.String() != got.String() {
				t.Errorf("divergence at %s for %q:\ndatabase:\n%s\nmemo:\n%s", at, q, want, got)
			}
		}
	}
}
