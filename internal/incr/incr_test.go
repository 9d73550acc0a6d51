package incr

import (
	"reflect"
	"testing"

	"repro/internal/change"
	"repro/internal/guidegen"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/value"
)

// extract parses, canonicalizes, and fingerprints src with the given
// names registered over the paper Guide database.
func extract(t *testing.T, src string, names ...string) *Fingerprint {
	t.Helper()
	q, err := lorel.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	if err := lorel.Canonicalize(q); err != nil {
		t.Fatalf("Canonicalize(%q): %v", src, err)
	}
	db, _ := guidegen.PaperGuide()
	graphs := make(map[string]lorel.Graph, len(names))
	for _, n := range names {
		graphs[n] = lorel.NewOEMGraph(db)
	}
	return Extract(q, graphs)
}

func TestExtractCreGuard(t *testing.T) {
	f := extract(t, `select R.restaurant<cre at T> where T > t[-1]`, "R")
	if !f.Analyzable || len(f.Guards) != 1 {
		t.Fatalf("fingerprint = %+v, want one guard", f)
	}
	g := f.Guards[0]
	if g.Kind != KindCre || g.Label != "restaurant" || !g.PrefixOK || len(g.Prefix) != 0 {
		t.Errorf("guard = %+v", g)
	}
}

func TestExtractUpdWithPrefix(t *testing.T) {
	f := extract(t, `select NV from R.restaurant X, X.price<upd at T to NV>
		where T > t[-1] and NV > 15`, "R")
	if len(f.Guards) != 1 {
		t.Fatalf("guards = %+v, want one", f.Guards)
	}
	g := f.Guards[0]
	if g.Kind != KindUpd || g.Label != "price" || !g.PrefixOK ||
		!reflect.DeepEqual(g.Prefix, []string{"restaurant"}) {
		t.Errorf("guard = %+v", g)
	}
}

func TestExtractArcGuards(t *testing.T) {
	f := extract(t, `select R.<add at T>restaurant where T > t[-1]`, "R")
	if len(f.Guards) != 1 || f.Guards[0].Kind != KindAdd || f.Guards[0].Label != "restaurant" {
		t.Fatalf("add guard = %+v", f.Guards)
	}
	f = extract(t, `select R.restaurant.<rem at T>parking where T > t[0]`, "R")
	if len(f.Guards) != 1 {
		t.Fatalf("rem guards = %+v", f.Guards)
	}
	g := f.Guards[0]
	if g.Kind != KindRem || g.Label != "parking" || !g.PrefixOK ||
		!reflect.DeepEqual(g.Prefix, []string{"restaurant"}) {
		t.Errorf("rem guard = %+v", g)
	}
}

func TestExtractFreshShapes(t *testing.T) {
	cases := []struct {
		where string
		fresh bool
	}{
		{`T > t[-1]`, true},
		{`T > t[0]`, true},
		{`T >= t[0]`, true},
		{`T = t[0]`, true},
		{`t[-1] < T`, true}, // mirrored
		{`t[0] = T`, true},  // mirrored
		{`T >= t[-1]`, false},
		{`T < t[0]`, false},
		{`T != t[-1]`, false},
		{`T > t[-1] or T > t[0]`, false}, // disjunction: conservative
	}
	for _, c := range cases {
		f := extract(t, `select R.restaurant<cre at T> where `+c.where, "R")
		if !f.Analyzable {
			t.Errorf("where %s: unanalyzable", c.where)
			continue
		}
		if got := f.Guarded(); got != c.fresh {
			t.Errorf("where %s: Guarded() = %v, want %v", c.where, got, c.fresh)
		}
	}
}

func TestExtractGlobLabelKindOnly(t *testing.T) {
	f := extract(t, `select R.rest%<cre at T> where T > t[-1]`, "R")
	if len(f.Guards) != 1 {
		t.Fatalf("guards = %+v", f.Guards)
	}
	if g := f.Guards[0]; g.Kind != KindCre || g.Label != "" || g.PrefixOK {
		t.Errorf("glob guard = %+v, want kind-only", g)
	}
}

func TestExtractUnanalyzable(t *testing.T) {
	// Unregistered head name: evaluation would error, so never skip.
	f := extract(t, `select R.restaurant<cre at T> where T > t[-1]`)
	if f.Analyzable || f.Guarded() {
		t.Errorf("unregistered head: fingerprint = %+v", f)
	}
	// Never-canonicalized query.
	q, err := lorel.Parse(`select R.restaurant<cre at T> where T > t[-1]`)
	if err != nil {
		t.Fatal(err)
	}
	if f := Extract(q, nil); f.Analyzable {
		t.Errorf("non-canonical query reported analyzable")
	}
	if f := Extract(nil, nil); f.Analyzable || f.Guarded() {
		t.Errorf("nil query fingerprint = %+v", f)
	}
}

func TestSummarize(t *testing.T) {
	db, ids := guidegen.PaperGuide()
	ops := change.Set{
		change.CreNode{Node: 900, Value: value.Str("new spot")},
		change.AddArc{Parent: ids.Guide, Label: "restaurant", Child: 900},
		change.UpdNode{Node: ids.Price, Value: value.Int(21)},
		change.RemArc{Parent: ids.Janta, Label: "parking", Child: ids.Parking},
	}
	for _, op := range ops {
		if err := op.Apply(db); err != nil {
			t.Fatal(err)
		}
	}
	d := Summarize(ops, db)
	if !d.HasSnapshot || d.Empty() {
		t.Fatalf("delta = %+v", d)
	}
	if len(d.Cre) != 1 || d.Cre[0].Node != 900 || !reflect.DeepEqual(d.Cre[0].Labels, []string{"restaurant"}) {
		t.Errorf("Cre = %+v", d.Cre)
	}
	if len(d.Upd) != 1 || !hasLabel(d.Upd[0].Labels, "price") {
		t.Errorf("Upd = %+v", d.Upd)
	}
	if len(d.Add) != 1 || d.Add[0].Label != "restaurant" {
		t.Errorf("Add = %+v", d.Add)
	}
	if len(d.Rem) != 1 || d.Rem[0] != (oem.Arc{Parent: ids.Janta, Label: "parking", Child: ids.Parking}) {
		t.Errorf("Rem = %+v", d.Rem)
	}
	if Summarize(nil, db).Empty() != true {
		t.Errorf("empty op set not empty")
	}
	if Summarize(ops, nil).HasSnapshot {
		t.Errorf("nil snapshot claims HasSnapshot")
	}
}

func TestAffected(t *testing.T) {
	db, ids := guidegen.PaperGuide()
	fPrice := extract(t, `select NV from R.restaurant X, X.price<upd at T to NV>
		where T > t[-1]`, "R")
	fCre := extract(t, `select R.restaurant<cre at T> where T > t[-1]`, "R")

	priceUpd := change.Set{change.UpdNode{Node: ids.Price, Value: value.Int(20)}}
	if err := priceUpd[0].Apply(db); err != nil {
		t.Fatal(err)
	}
	d := Summarize(priceUpd, db)
	if !fPrice.Affected(d, db) {
		t.Errorf("price update did not affect price watcher")
	}
	if fCre.Affected(d, db) {
		t.Errorf("price update affected cre watcher")
	}

	// An update to a node reached under a different label is filtered by
	// the in-label check.
	nameUpd := change.Set{change.UpdNode{Node: ids.BangkokName, Value: value.Str("BC")}}
	if err := nameUpd[0].Apply(db); err != nil {
		t.Fatal(err)
	}
	if fPrice.Affected(Summarize(nameUpd, db), db) {
		t.Errorf("name update affected price watcher")
	}
	// Without a snapshot the same delta is conservatively affected.
	if !fPrice.Affected(Summarize(nameUpd, nil), nil) {
		t.Errorf("snapshot-free delta not conservative")
	}
	// Unguarded fingerprints are always affected.
	if !(&Fingerprint{}).Affected(Summarize(nameUpd, db), db) {
		t.Errorf("unguarded fingerprint not always affected")
	}
}

func TestAffectedPrefixWalk(t *testing.T) {
	db, ids := guidegen.PaperGuide()
	f := extract(t, `select NV from R.restaurant X, X.price<upd at T to NV>
		where T > t[-1]`, "R")

	// A "price" node hanging off a chain that does NOT run root
	// -restaurant-> parent is pruned by the backward walk.
	orphanParent := db.CreateNode(value.Complex())
	orphanPrice := db.CreateNode(value.Int(3))
	if err := db.AddArc(db.Root(), "archive", orphanParent); err != nil {
		t.Fatal(err)
	}
	if err := db.AddArc(orphanParent, "price", orphanPrice); err != nil {
		t.Fatal(err)
	}
	upd := change.Set{change.UpdNode{Node: orphanPrice, Value: value.Int(4)}}
	if err := upd[0].Apply(db); err != nil {
		t.Fatal(err)
	}
	if f.Affected(Summarize(upd, db), db) {
		t.Errorf("walk failed to prune archive.price update")
	}

	// The real one still matches.
	upd = change.Set{change.UpdNode{Node: ids.Price, Value: value.Int(9)}}
	if err := upd[0].Apply(db); err != nil {
		t.Fatal(err)
	}
	if !f.Affected(Summarize(upd, db), db) {
		t.Errorf("walk pruned a genuine restaurant.price update")
	}
}

func TestDecideCounts(t *testing.T) {
	db, ids := guidegen.PaperGuide()
	f := extract(t, `select R.restaurant<cre at T> where T > t[-1]`, "R")
	defer obs.SetEnabled(obs.SetEnabled(true))
	skips, evals := mSkips.Value(), mEvals.Value()
	upd := change.Set{change.UpdNode{Node: ids.Price, Value: value.Int(20)}}
	if f.Decide(Summarize(upd, db), db) {
		t.Errorf("Decide evaluated a provably-empty poll")
	}
	cre := change.Set{change.CreNode{Node: 901, Value: value.Str("x")},
		change.AddArc{Parent: ids.Guide, Label: "restaurant", Child: 901}}
	for _, op := range cre {
		if err := op.Apply(db); err != nil {
			t.Fatal(err)
		}
	}
	if !f.Decide(Summarize(cre, db), db) {
		t.Errorf("Decide skipped an affected poll")
	}
	if mSkips.Value() != skips+1 || mEvals.Value() != evals+1 {
		t.Errorf("counters: skips %d->%d evals %d->%d", skips, mSkips.Value(), evals, mEvals.Value())
	}
}

func TestIndex(t *testing.T) {
	db, ids := guidegen.PaperGuide()
	ix := NewIndex()
	ix.Put("price", extract(t, `select NV from R.restaurant X, X.price<upd at T to NV>
		where T > t[-1]`, "R"))
	ix.Put("cre", extract(t, `select R.restaurant<cre at T> where T > t[-1]`, "R"))
	ix.Put("always", &Fingerprint{}) // unanalyzable: every probe returns it
	if ix.Len() != 3 {
		t.Fatalf("Len = %d", ix.Len())
	}

	upd := change.Set{change.UpdNode{Node: ids.Price, Value: value.Int(20)}}
	if err := upd[0].Apply(db); err != nil {
		t.Fatal(err)
	}
	got := ix.Probe(Summarize(upd, db), db)
	if !reflect.DeepEqual(got, []string{"always", "price"}) {
		t.Errorf("Probe(upd) = %v", got)
	}

	cre := change.Set{change.CreNode{Node: 902, Value: value.Str("y")},
		change.AddArc{Parent: ids.Guide, Label: "restaurant", Child: 902}}
	for _, op := range cre {
		if err := op.Apply(db); err != nil {
			t.Fatal(err)
		}
	}
	got = ix.Probe(Summarize(cre, db), db)
	if !reflect.DeepEqual(got, []string{"always", "cre"}) {
		t.Errorf("Probe(cre) = %v", got)
	}

	ix.Remove("always")
	ix.Remove("cre")
	got = ix.Probe(Summarize(cre, db), db)
	if len(got) != 0 {
		t.Errorf("Probe after Remove = %v", got)
	}
	// Re-Put with a changed fingerprint re-files the id.
	ix.Put("price", &Fingerprint{})
	got = ix.Probe(Summarize(upd, db), db)
	if !reflect.DeepEqual(got, []string{"price"}) {
		t.Errorf("Probe after re-Put = %v", got)
	}
}
