package doem

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/change"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// fixture builds the Figure 2 Guide database and returns ids mirroring the
// paper's n1 (Bangkok price), n4 (guide root), n6 (Janta), n7 (parking).
type fixture struct {
	db         *oem.Database
	price      oem.NodeID // n1
	guide      oem.NodeID // n4
	janta      oem.NodeID // n6
	parking    oem.NodeID // n7
	bangkok    oem.NodeID
	h          change.History
	n2, n3, n5 oem.NodeID // Hakata restaurant, name, comment
	t1, t2, t3 timestamp.Time
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	b := oem.NewBuilder()
	guide := b.Root()
	bangkok := b.ComplexArc(guide, "restaurant")
	b.AtomArc(bangkok, "name", value.Str("Bangkok Cuisine"))
	price := b.AtomArc(bangkok, "price", value.Int(10))
	b.AtomArc(bangkok, "cuisine", value.Str("Thai"))
	addr := b.ComplexArc(bangkok, "address")
	b.AtomArc(addr, "street", value.Str("Lytton"))
	b.AtomArc(addr, "city", value.Str("Palo Alto"))
	janta := b.ComplexArc(guide, "restaurant")
	b.AtomArc(janta, "name", value.Str("Janta"))
	b.AtomArc(janta, "price", value.Str("moderate"))
	b.AtomArc(janta, "address", value.Str("120 Lytton"))
	parking := b.ComplexArc(janta, "parking")
	b.Arc(bangkok, "parking", parking)
	b.AtomArc(parking, "comment", value.Str("usually full"))
	b.AtomArc(parking, "address", value.Str("Lytton lot 2"))
	b.Arc(parking, "nearby-eats", bangkok)
	db := b.Build()

	f := &fixture{
		db: db, price: price, guide: guide, janta: janta, parking: parking,
		bangkok: bangkok,
		n2:      oem.NodeID(100), n3: oem.NodeID(101), n5: oem.NodeID(102),
		t1: timestamp.MustParse("1Jan97"),
		t2: timestamp.MustParse("5Jan97"),
		t3: timestamp.MustParse("8Jan97"),
	}
	f.h = change.History{
		{At: f.t1, Ops: change.Set{
			change.UpdNode{Node: f.price, Value: value.Int(20)},
			change.CreNode{Node: f.n2, Value: value.Complex()},
			change.CreNode{Node: f.n3, Value: value.Str("Hakata")},
			change.AddArc{Parent: f.guide, Label: "restaurant", Child: f.n2},
			change.AddArc{Parent: f.n2, Label: "name", Child: f.n3},
		}},
		{At: f.t2, Ops: change.Set{
			change.CreNode{Node: f.n5, Value: value.Str("need info")},
			change.AddArc{Parent: f.n2, Label: "comment", Child: f.n5},
		}},
		{At: f.t3, Ops: change.Set{
			change.RemArc{Parent: f.janta, Label: "parking", Child: f.parking},
		}},
	}
	return f
}

func (f *fixture) doem(t testing.TB) *Database {
	t.Helper()
	d, err := FromHistory(f.db, f.h)
	if err != nil {
		t.Fatalf("FromHistory: %v", err)
	}
	return d
}

// TestPaperExample31Annotations checks the exact annotation sets of Figure 4.
func TestPaperExample31Annotations(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)

	// upd(1Jan97, ov:10) on the price node.
	ups := d.UpdTriples(f.price)
	if len(ups) != 1 {
		t.Fatalf("price upd annotations = %d, want 1", len(ups))
	}
	if !ups[0].At.Equal(f.t1) || !ups[0].Old.Equal(value.Int(10)) || !ups[0].New.Equal(value.Int(20)) {
		t.Errorf("price upd = (%s, %s, %s), want (1Jan97, 10, 20)", ups[0].At, ups[0].Old, ups[0].New)
	}

	// cre(1Jan97) on the Hakata restaurant and name nodes.
	for _, n := range []oem.NodeID{f.n2, f.n3} {
		ct, ok := d.CreTime(n)
		if !ok || !ct.Equal(f.t1) {
			t.Errorf("node %s cre = (%s, %v), want 1Jan97", n, ct, ok)
		}
	}
	// cre(5Jan97) on the comment node.
	if ct, ok := d.CreTime(f.n5); !ok || !ct.Equal(f.t2) {
		t.Errorf("comment cre = (%s, %v), want 5Jan97", ct, ok)
	}

	// add(1Jan97) on restaurant and name arcs; add(5Jan97) on comment arc.
	adds := d.AddEvents(f.guide, "restaurant")
	if len(adds) != 1 || !adds[0].At.Equal(f.t1) || adds[0].Child != f.n2 {
		t.Errorf("restaurant add events = %v", adds)
	}
	adds = d.AddEvents(f.n2, "comment")
	if len(adds) != 1 || !adds[0].At.Equal(f.t2) || adds[0].Child != f.n5 {
		t.Errorf("comment add events = %v", adds)
	}

	// rem(8Jan97) on Janta's parking arc; the arc stays in the DOEM graph.
	rems := d.RemEvents(f.janta, "parking")
	if len(rems) != 1 || !rems[0].At.Equal(f.t3) || rems[0].Child != f.parking {
		t.Errorf("parking rem events = %v", rems)
	}
	arc := oem.Arc{Parent: f.janta, Label: "parking", Child: f.parking}
	if !d.IsDead(arc) {
		t.Error("removed arc not marked dead")
	}
	found := false
	for _, a := range d.OutAll(f.janta) {
		if a == arc {
			found = true
		}
	}
	if !found {
		t.Error("removed arc missing from full graph (must be retained, Figure 4)")
	}
	// But absent from the current snapshot.
	if d.Current().HasArc(f.janta, "parking", f.parking) {
		t.Error("removed arc still in current snapshot")
	}

	// Exactly 7 annotations in Figure 4: 1 upd + 3 cre + 3 add... plus rem = 8.
	// Figure 4 shows: upd, cre x3, add x3, rem x1.
	if got := d.NumAnnotations(); got != 8 {
		t.Errorf("annotation count = %d, want 8", got)
	}

	// Original nodes carry no annotations.
	if len(d.NodeAnnots(f.janta)) != 0 || len(d.NodeAnnots(f.guide)) != 0 {
		t.Error("original nodes must have empty annotation sets")
	}
}

func TestCurrentSnapshotMatchesFigure3(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	cur := d.Current()
	if err := cur.Validate(); err != nil {
		t.Fatalf("current snapshot invalid: %v", err)
	}
	if v := cur.MustValue(f.price); !v.Equal(value.Int(20)) {
		t.Errorf("price = %s, want 20", v)
	}
	if got := len(cur.OutLabeled(f.guide, "restaurant")); got != 3 {
		t.Errorf("restaurants = %d, want 3", got)
	}
	if cur.HasArc(f.janta, "parking", f.parking) {
		t.Error("parking arc should be gone from current snapshot")
	}
}

// TestOriginalSnapshot checks O_0(D) reproduces Figure 2 exactly.
func TestOriginalSnapshot(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	o0 := d.Original()
	if err := o0.Validate(); err != nil {
		t.Fatalf("O_0 invalid: %v", err)
	}
	if !o0.Equal(f.db) {
		t.Errorf("O_0(D) differs from the original database:\nwant:\n%s\ngot:\n%s", f.db, o0)
	}
}

// TestSnapshotAt walks the timeline of Example 2.2.
func TestSnapshotAt(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)

	// Before t1: identical to the original.
	s := d.SnapshotAt(timestamp.MustParse("31Dec96"))
	if !s.Equal(f.db) {
		t.Error("snapshot before t1 should equal the original")
	}

	// At t1: price updated, Hakata present without comment, parking intact.
	s = d.SnapshotAt(f.t1)
	if v := s.MustValue(f.price); !v.Equal(value.Int(20)) {
		t.Errorf("price at t1 = %s, want 20", v)
	}
	if !s.HasArc(f.guide, "restaurant", f.n2) {
		t.Error("Hakata missing at t1")
	}
	if s.HasArc(f.n2, "comment", f.n5) {
		t.Error("comment present at t1 (added at t2)")
	}
	if !s.HasArc(f.janta, "parking", f.parking) {
		t.Error("parking arc missing at t1 (removed at t3)")
	}

	// Between t1 and t2 (e.g. 3Jan97): same as at t1.
	if !d.SnapshotAt(timestamp.MustParse("3Jan97")).Equal(s) {
		t.Error("snapshot at 3Jan97 should equal snapshot at t1")
	}

	// At t2: comment present.
	s = d.SnapshotAt(f.t2)
	if !s.HasArc(f.n2, "comment", f.n5) {
		t.Error("comment missing at t2")
	}

	// At t3 and beyond: parking arc gone; equals the current snapshot.
	s = d.SnapshotAt(f.t3)
	if s.HasArc(f.janta, "parking", f.parking) {
		t.Error("parking arc present at t3")
	}
	if !s.Equal(d.Current()) {
		t.Error("snapshot at t3 should equal current snapshot")
	}
	if !d.SnapshotAt(timestamp.PosInf).Equal(d.Current()) {
		t.Error("snapshot at +inf should equal current snapshot")
	}
}

func TestValueAt(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	if v := d.ValueAt(f.price, timestamp.MustParse("31Dec96")); !v.Equal(value.Int(10)) {
		t.Errorf("price before update = %s, want 10", v)
	}
	if v := d.ValueAt(f.price, f.t1); !v.Equal(value.Int(20)) {
		t.Errorf("price at update instant = %s, want 20", v)
	}
	if v := d.ValueAt(f.price, timestamp.PosInf); !v.Equal(value.Int(20)) {
		t.Errorf("price now = %s, want 20", v)
	}
}

func TestValueAtMultipleUpdates(t *testing.T) {
	db := oem.New()
	n := db.CreateNode(value.Int(1))
	if err := db.AddArc(db.Root(), "x", n); err != nil {
		t.Fatal(err)
	}
	h := change.History{
		{At: timestamp.MustParse("1Jan97"), Ops: change.Set{change.UpdNode{Node: n, Value: value.Int(2)}}},
		{At: timestamp.MustParse("2Jan97"), Ops: change.Set{change.UpdNode{Node: n, Value: value.Int(3)}}},
		{At: timestamp.MustParse("3Jan97"), Ops: change.Set{change.UpdNode{Node: n, Value: value.Int(4)}}},
	}
	d, err := FromHistory(db, h)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"31Dec96": 1, "1Jan97": 2, "2Jan97": 3, "3Jan97": 4, "4Jan97": 4,
	}
	for ts, w := range want {
		if v := d.ValueAt(n, timestamp.MustParse(ts)); !v.Equal(value.Int(w)) {
			t.Errorf("value at %s = %s, want %d", ts, v, w)
		}
	}
	ups := d.UpdTriples(n)
	if len(ups) != 3 {
		t.Fatalf("upd count = %d", len(ups))
	}
	// New-value chaining: new of upd_i = old of upd_{i+1}.
	if !ups[0].New.Equal(value.Int(2)) || !ups[1].New.Equal(value.Int(3)) || !ups[2].New.Equal(value.Int(4)) {
		t.Errorf("new-value chain wrong: %v", ups)
	}
}

func TestArcLiveAtReAdd(t *testing.T) {
	// Remove an arc and add it back later: the timeline must toggle.
	db := oem.New()
	n := db.CreateNode(value.Int(1))
	if err := db.AddArc(db.Root(), "x", n); err != nil {
		t.Fatal(err)
	}
	keep := db.CreateNode(value.Int(2)) // second path keeps n alive
	if err := db.AddArc(db.Root(), "keep", keep); err != nil {
		t.Fatal(err)
	}
	h := change.History{
		{At: timestamp.MustParse("1Jan97"), Ops: change.Set{
			change.RemArc{Parent: db.Root(), Label: "x", Child: n},
			change.AddArc{Parent: db.Root(), Label: "y", Child: n},
		}},
		{At: timestamp.MustParse("2Jan97"), Ops: change.Set{
			change.AddArc{Parent: db.Root(), Label: "x", Child: n},
		}},
	}
	d, err := FromHistory(db, h)
	if err != nil {
		t.Fatal(err)
	}
	arc := oem.Arc{Parent: db.Root(), Label: "x", Child: n}
	if !d.ArcLiveAt(arc, timestamp.MustParse("31Dec96")) {
		t.Error("arc should be live before removal")
	}
	if d.ArcLiveAt(arc, timestamp.MustParse("1Jan97")) {
		t.Error("arc should be dead at 1Jan97")
	}
	if !d.ArcLiveAt(arc, timestamp.MustParse("2Jan97")) {
		t.Error("arc should be live again at 2Jan97")
	}
	if d.IsDead(arc) {
		t.Error("re-added arc should not be marked dead")
	}
	// The annotation trail shows rem then add.
	anns := d.ArcAnnots(arc)
	if len(anns) != 2 || anns[0].Kind != AnnotRem || anns[1].Kind != AnnotAdd {
		t.Errorf("annotation trail = %v", anns)
	}
}

// outAt is what a step through <at t> reads of n: OutAll(n) filtered by
// ArcLiveAt, in insertion order.
func outAt(d *Database, n oem.NodeID, t timestamp.Time) []oem.Arc {
	var arcs []oem.Arc
	for _, a := range d.OutAll(n) {
		if d.ArcLiveAt(a, t) {
			arcs = append(arcs, a)
		}
	}
	return arcs
}

// TestOutAtMatchesSnapshot: outAt(n, t) is the out-arc list of n in the
// snapshot O_t(D), in the same order, for every node that snapshot holds
// and every instant around the Example 2.2 timeline.
func TestOutAtMatchesSnapshot(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	times := []timestamp.Time{timestamp.NegInf, timestamp.MustParse("31Dec96"),
		f.t1, timestamp.MustParse("3Jan97"), f.t2, f.t3, timestamp.PosInf}
	for _, at := range times {
		s := d.SnapshotAt(at)
		for _, n := range d.AllNodeIDs() {
			if !s.Has(n) {
				continue
			}
			got, want := outAt(d, n, at), s.Out(n)
			if len(got) != len(want) {
				t.Fatalf("outAt(%s, %s) = %v, want %v", n, at, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("outAt(%s, %s) = %v, want %v", n, at, got, want)
				}
			}
		}
	}
	// Spot checks on the arcs the history touches.
	parking := oem.Arc{Parent: f.janta, Label: "parking", Child: f.parking}
	has := func(arcs []oem.Arc, a oem.Arc) bool {
		for _, b := range arcs {
			if b == a {
				return true
			}
		}
		return false
	}
	if !has(outAt(d, f.janta, f.t2), parking) || has(outAt(d, f.janta, f.t3), parking) {
		t.Error("Janta's parking arc should be live at t2 and gone at t3")
	}
	if n := len(outAt(d, f.guide, timestamp.MustParse("31Dec96"))); n != 2 {
		t.Errorf("guide has %d arcs before t1, want 2", n)
	}
	if n := len(outAt(d, f.guide, f.t1)); n != 3 {
		t.Errorf("guide has %d arcs at t1, want 3", n)
	}
}

func TestDeletedNodeRetained(t *testing.T) {
	// A node that becomes unreachable is deleted from the current snapshot
	// but its history — and final value — remain in the DOEM graph.
	db := oem.New()
	n := db.CreateNode(value.Str("ephemeral"))
	if err := db.AddArc(db.Root(), "x", n); err != nil {
		t.Fatal(err)
	}
	h := change.History{
		{At: timestamp.MustParse("1Jan97"), Ops: change.Set{
			change.RemArc{Parent: db.Root(), Label: "x", Child: n},
		}},
	}
	d, err := FromHistory(db, h)
	if err != nil {
		t.Fatal(err)
	}
	if d.Current().Has(n) {
		t.Error("deleted node still in current snapshot")
	}
	if !d.Has(n) {
		t.Error("deleted node missing from DOEM graph")
	}
	if v, ok := d.Value(n); !ok || !v.Equal(value.Str("ephemeral")) {
		t.Errorf("deleted node value = %s,%v", v, ok)
	}
	// It reappears in historical snapshots.
	s := d.SnapshotAt(timestamp.MustParse("31Dec96"))
	if !s.Has(n) {
		t.Error("deleted node missing from pre-deletion snapshot")
	}
}

func TestApplyGuards(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)

	// Stale timestamp.
	err := d.Apply(f.t2, change.Set{})
	if !errors.Is(err, ErrStaleTimestamp) {
		t.Errorf("stale timestamp: %v", err)
	}
	// Non-finite timestamp.
	err = d.Apply(timestamp.PosInf, change.Set{})
	if !errors.Is(err, ErrStaleTimestamp) {
		t.Errorf("infinite timestamp: %v", err)
	}

	// Make the Hakata comment node unreachable, then try to touch it.
	t4 := timestamp.MustParse("9Jan97")
	if err := d.Apply(t4, change.Set{change.RemArc{Parent: f.n2, Label: "comment", Child: f.n5}}); err != nil {
		t.Fatal(err)
	}
	t5 := timestamp.MustParse("10Jan97")
	err = d.Apply(t5, change.Set{change.UpdNode{Node: f.n5, Value: value.Str("zombie")}})
	if !errors.Is(err, ErrDeletedNode) {
		t.Errorf("update of deleted node: %v", err)
	}
	err = d.Apply(t5, change.Set{change.CreNode{Node: f.n5, Value: value.Int(1)}})
	if !errors.Is(err, ErrReusedID) {
		t.Errorf("reuse of deleted id: %v", err)
	}
	err = d.Apply(t5, change.Set{change.AddArc{Parent: f.n2, Label: "comment", Child: f.n5}})
	if !errors.Is(err, ErrDeletedNode) {
		t.Errorf("arc to deleted node: %v", err)
	}
}

// TestExtractHistory checks H(D) recovers the paper's Example 2.3 history.
func TestExtractHistory(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	h := d.ExtractHistory()
	if len(h) != 3 {
		t.Fatalf("extracted %d steps, want 3", len(h))
	}
	for i, want := range []timestamp.Time{f.t1, f.t2, f.t3} {
		if !h[i].At.Equal(want) {
			t.Errorf("step %d at %s, want %s", i, h[i].At, want)
		}
	}
	if len(h[0].Ops) != 5 || len(h[1].Ops) != 2 || len(h[2].Ops) != 1 {
		t.Errorf("op counts = %d,%d,%d; want 5,2,1", len(h[0].Ops), len(h[1].Ops), len(h[2].Ops))
	}
	// Replaying the extracted history over O_0 reproduces the current state.
	o0 := d.Original()
	if err := h.Apply(o0); err != nil {
		t.Fatalf("extracted history invalid: %v", err)
	}
	if !o0.Equal(d.Current()) {
		t.Error("replayed extracted history differs from current snapshot")
	}
}

// TestFeasible checks the Section 3.2 uniqueness property: D(O_0(D), H(D)) = D.
func TestFeasible(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	if !d.Feasible() {
		t.Error("paper-example DOEM database reported infeasible")
	}
	// An empty DOEM database is trivially feasible.
	if !New(oem.New()).Feasible() {
		t.Error("empty DOEM database infeasible")
	}
}

func TestFeasibleAfterDeletions(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	// Remove the Hakata comment — the comment node becomes unreachable.
	if err := d.Apply(timestamp.MustParse("9Jan97"), change.Set{
		change.RemArc{Parent: f.n2, Label: "comment", Child: f.n5},
	}); err != nil {
		t.Fatal(err)
	}
	if !d.Feasible() {
		t.Error("DOEM with deleted nodes reported infeasible")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	f := newFixture(t)
	a := f.doem(t)
	b := f.doem(t)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("identically constructed DOEM databases unequal")
	}
	if err := b.Apply(timestamp.MustParse("9Jan97"), change.Set{
		change.UpdNode{Node: f.price, Value: value.Int(25)},
	}); err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) {
		t.Error("databases equal after divergent update")
	}
}

func TestStringRendering(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	s := d.String()
	for _, want := range []string{"upd(1Jan97, 10)", "cre(1Jan97)", "add(5Jan97)", "rem(8Jan97)", "(removed)"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q", want)
		}
	}
}

func TestFromHistoryDoesNotMutateInput(t *testing.T) {
	f := newFixture(t)
	before := f.db.Clone()
	_ = f.doem(t)
	if !f.db.Equal(before) {
		t.Error("FromHistory mutated the input OEM database")
	}
}

func TestStepsAccounting(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	steps := d.Steps()
	if len(steps) != 3 || !steps[0].Equal(f.t1) || !steps[2].Equal(f.t3) {
		t.Errorf("Steps() = %v", steps)
	}
	if !d.LastStep().Equal(f.t3) {
		t.Errorf("LastStep = %s", d.LastStep())
	}
	if !New(oem.New()).LastStep().Equal(timestamp.NegInf) {
		t.Error("empty DOEM LastStep should be -inf")
	}
}

func TestReAddedArcHistoryFeasible(t *testing.T) {
	// An arc removed and later re-added must round-trip through
	// ExtractHistory / Feasible.
	db := oem.New()
	n := db.CreateNode(value.Int(1))
	if err := db.AddArc(db.Root(), "x", n); err != nil {
		t.Fatal(err)
	}
	keep := db.CreateNode(value.Int(2))
	if err := db.AddArc(db.Root(), "keep", keep); err != nil {
		t.Fatal(err)
	}
	h := change.History{
		{At: timestamp.MustParse("1Jan97"), Ops: change.Set{
			change.RemArc{Parent: db.Root(), Label: "x", Child: n},
			change.AddArc{Parent: db.Root(), Label: "y", Child: n},
		}},
		{At: timestamp.MustParse("2Jan97"), Ops: change.Set{
			change.AddArc{Parent: db.Root(), Label: "x", Child: n},
		}},
	}
	d, err := FromHistory(db, h)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible() {
		t.Error("re-added-arc history infeasible")
	}
	eh := d.ExtractHistory()
	if len(eh) != 2 {
		t.Errorf("extracted steps = %d", len(eh))
	}
}

// TestCloneIsIndependent: a clone equals its original, and steps applied
// to either afterwards — at different times, adding differently labeled
// arcs — leave the other unchanged.
func TestCloneIsIndependent(t *testing.T) {
	f := newFixture(t)
	d, err := FromHistory(f.db, f.h)
	if err != nil {
		t.Fatal(err)
	}
	c := d.Clone()
	if !c.Equal(d) || c.MaxID() != d.MaxID() || len(c.Steps()) != len(d.Steps()) {
		t.Fatal("clone differs from its original")
	}
	step := func(label string, price int64) change.Set {
		return change.Set{
			change.UpdNode{Node: f.price, Value: value.Int(price)},
			change.CreNode{Node: 200, Value: value.Str(label)},
			change.AddArc{Parent: f.guide, Label: label, Child: 200},
		}
	}
	t4, t5 := timestamp.MustParse("9Jan97"), timestamp.MustParse("10Jan97")
	if err := d.Apply(t4, step("x", 30)); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(t5, step("y", 40)); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		db    *Database
		at    timestamp.Time
		label string
		price int64
	}{{d, t4, "x", 30}, {c, t5, "y", 40}} {
		h := append(f.h[:len(f.h):len(f.h)], change.Step{At: tc.at, Ops: step(tc.label, tc.price)})
		want, err := FromHistory(f.db, h)
		if err != nil {
			t.Fatal(err)
		}
		if !tc.db.Equal(want) {
			t.Errorf("%s: the other database's step leaked in", tc.label)
		}
		out := tc.db.OutAll(f.guide)
		if last := out[len(out)-1]; last.Label != tc.label {
			t.Errorf("%s: last arc of the guide is %s, want label %s", tc.label, last, tc.label)
		}
	}
}
