package chorel

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
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
// 4.2.2 at exact annotation timestamps, for all four annotation kinds: on
// the database's accessors and on what a query stepping through <at T>
// reaches.
func TestAtBoundarySemantics(t *testing.T) {
	d, itemArc, initArc, n2, ts := boundaryFixture(t)
	t1, t2, t3, t4 := ts[0], ts[1], ts[2], ts[3]
	db := New("guide", d)
	sec := func(t timestamp.Time, off int64) timestamp.Time { return t.Add(time.Duration(off) * time.Second) }

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
			if got := d.ArcLiveAt(itemArc, tc.at); got != tc.itemLive {
				t.Errorf("ArcLiveAt(item, %s) = %v, want %v", tc.at, got, tc.itemLive)
			}
			if got := d.ArcLiveAt(initArc, tc.at); got != tc.initLive {
				t.Errorf("ArcLiveAt(init, %s) = %v, want %v", tc.at, got, tc.initLive)
			}
			if got := d.ValueAt(n2, tc.at); !got.Equal(value.Int(tc.n2Value)) {
				t.Errorf("ValueAt(n2, %s) = %s, want %d", tc.at, got, tc.n2Value)
			}
			res, err := db.Query(fmt.Sprintf(`select guide.<at %q>item`, tc.at.String()))
			if err != nil {
				t.Fatal(err)
			}
			var want []oem.NodeID
			if tc.itemLive {
				want = []oem.NodeID{n2}
			}
			if got := res.FirstColumnNodes(); !slices.Equal(got, want) {
				t.Errorf("guide.<at %s>item reached %v, want %v", tc.at, got, want)
			}
		})
	}
}

// TestAtBoundaryQueries: a query stepping from the root through <at T>
// returns what the same query without it returns over the snapshot O_T
// (Section 4.2.2), one second before, at and after every step.
func TestAtBoundaryQueries(t *testing.T) {
	d, _, _, _, ts := boundaryFixture(t)
	db := New("guide", d)
	var instants []timestamp.Time
	for _, s := range ts {
		instants = append(instants, s.Add(-time.Second), s, s.Add(time.Second))
	}
	for _, at := range instants {
		snap := lorel.NewEngine()
		snap.Register("guide", lorel.NewOEMGraph(d.SnapshotAt(at)))
		for _, tmpl := range []string{
			`select guide.<at %q>item`,
			`select guide.<at %q>init`,
			`select X from guide.<at %q>item X where X = 2`,
		} {
			q := fmt.Sprintf(tmpl, at.String())
			got, err := db.Query(q)
			if err != nil {
				t.Fatalf("database %q: %v", q, err)
			}
			sq := strings.Replace(tmpl, "<at %q>", "", 1)
			want, err := snap.Query(sq)
			if err != nil {
				t.Fatalf("snapshot %q: %v", sq, err)
			}
			if want.String() != got.String() {
				t.Errorf("divergence at %s for %q:\nsnapshot:\n%s\ndatabase:\n%s", at, q, want, got)
			}
		}
	}
}

// TestAtAfterApply: a DB that answered <at T> queries answers them for the
// new version after each Apply, as an engine built fresh for that version
// does.
func TestAtAfterApply(t *testing.T) {
	e := guidegen.NewEvolver(11, 10)
	d := doem.New(e.DB)
	db := New("guide", d)
	at := timestamp.MustParse("1Jan97")
	for i := 0; i < 8; i++ {
		if set := e.Step(5); len(set) > 0 {
			if err := db.Apply(at, set); err != nil {
				t.Fatalf("apply step %d: %v", i, err)
			}
		}
		fresh := lorel.NewEngine()
		fresh.Register("guide", d)
		for _, q := range []string{
			`select guide.restaurant.name`,
			fmt.Sprintf(`select guide.<at %q>restaurant.name`, at.String()),
			fmt.Sprintf(`select N from guide.<at %q>restaurant R, R.name N where R.price < 20`, at.Add(-24*time.Hour).String()),
			`select T from guide.<add at T>restaurant`,
		} {
			got, err := db.Query(q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			want, err := fresh.Query(q)
			if err != nil {
				t.Fatalf("fresh %q: %v", q, err)
			}
			if want.String() != got.String() {
				t.Fatalf("stale result after step %d for %q:\nwant:\n%s\ngot:\n%s", i, q, want, got)
			}
		}
		at = at.Add(24 * time.Hour)
	}
}

// TestAtColdInstantCostsAsHot: a query through <at T> allocates as much at
// an instant no query asked before as at one asked again and again. The
// step reads each arc's own annotations, so no instant builds anything a
// later query could reuse.
func TestAtColdInstantCostsAsHot(t *testing.T) {
	initial, h := guidegen.GenerateHistory(7, 500, 60, 10)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatal(err)
	}
	db := New("guide", d)
	const runs = 8
	query := func(at timestamp.Time) string {
		return fmt.Sprintf(`select P from guide.<at %q>restaurant.price P where P < 8`, at.String())
	}
	bytesPerQuery := func(queries []string) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, q := range queries {
			if _, err := db.Query(q); err != nil {
				t.Fatalf("%q: %v", q, err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(queries))
	}
	steps := d.Steps()
	var hot, cold []string
	for i := 0; i < runs; i++ {
		hot = append(hot, query(steps[len(steps)/2]))
		cold = append(cold, query(steps[i*len(steps)/(2*runs)]))
	}
	// Parsing and planning are paid per query text, not per instant: both
	// happen before measuring, so the two runs differ in the instant alone.
	for _, q := range append([]string{hot[0]}, cold...) {
		if _, err := db.Engine().PlanDescription(q); err != nil {
			t.Fatalf("%q: %v", q, err)
		}
	}
	h8, c8 := bytesPerQuery(hot), bytesPerQuery(cold)
	if ratio := max(h8, c8) / min(h8, c8); ratio > 1.25 {
		t.Errorf("a query at a repeated instant allocates %.0f B, at a new instant %.0f B: %.2fx apart, want within 1.25x", h8, c8, ratio)
	}
}

// TestAtNonExactSteps: below <at T>, steps without one exact label
// ('%' globs, groups, '#') read every arc of the node and keep those live
// at T, and answer what the same query without <at T> answers over the
// snapshot O_T, one second before, at and after a spread of steps.
func TestAtNonExactSteps(t *testing.T) {
	initial, h := guidegen.GenerateHistory(3, 40, 12, 6)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatal(err)
	}
	db := New("guide", d)
	steps := d.Steps()
	var instants []timestamp.Time
	for i := 0; i < len(steps); i += 4 {
		s := steps[i]
		instants = append(instants, s.Add(-time.Second), s, s.Add(time.Second))
	}
	for _, at := range instants {
		snap := lorel.NewEngine()
		snap.Register("guide", lorel.NewOEMGraph(d.SnapshotAt(at)))
		for _, tmpl := range []string{
			`select guide.<at @>%`,
			`select N from guide.<at @>rest% R, R.name N`,
			`select X from guide.<at @>restaurant.(name|price) X`,
			`select X from guide.<at @>restaurant.# X`,
			`select R from guide.<at @>restaurant R where R.(address)?.% like "%Palo%" or R.price < 20`,
		} {
			q := strings.Replace(tmpl, "@", fmt.Sprintf("%q", at.String()), 1)
			got, err := db.Query(q)
			if err != nil {
				t.Fatalf("database %q: %v", q, err)
			}
			sq := strings.Replace(tmpl, "<at @>", "", 1)
			want, err := snap.Query(sq)
			if err != nil {
				t.Fatalf("snapshot %q: %v", sq, err)
			}
			if want.String() != got.String() {
				t.Errorf("divergence at %s for %q:\nsnapshot:\n%s\ndatabase:\n%s", at, q, want, got)
			}
		}
	}
}
