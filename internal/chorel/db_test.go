package chorel

import (
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

func TestOpenApplyQuery(t *testing.T) {
	db, ids := guidegen.PaperGuide()
	c := New("guide", doem.New(db))
	if err := c.Apply(guidegen.T1, change.Set{
		change.UpdNode{Node: ids.Price, Value: value.Int(20)},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`select OV, NV from guide.restaurant.price<upd from OV to NV>`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	if v := res.Values("old-value"); len(v) != 1 || !v[0].Equal(value.Int(10)) {
		t.Errorf("old-value = %v", v)
	}
}

func TestFromHistoryAndBothStrategies(t *testing.T) {
	c, _ := paperDB(t)
	const q = `select guide.<add>restaurant`
	direct, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	trans, err := c.QueryTranslated(q)
	if err != nil {
		t.Fatal(err)
	}
	dn := direct.FirstColumnNodes()
	tn := c.MapToDOEM(trans.FirstColumnNodes())
	if len(dn) != 1 || len(tn) != 1 || dn[0] != tn[0] {
		t.Errorf("strategies disagree: %v vs %v", dn, tn)
	}
}

func TestApplySnapshot(t *testing.T) {
	db, ids := guidegen.PaperGuide()
	c := New("guide", doem.New(db))
	next := db.Clone()
	if err := next.UpdateNode(ids.Price, value.Int(25)); err != nil {
		t.Fatal(err)
	}
	ops, err := c.ApplySnapshot(guidegen.T1, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 {
		t.Fatalf("inferred ops = %s", ops)
	}
	if v := c.Current().MustValue(ids.Price); !v.Equal(value.Int(25)) {
		t.Errorf("price = %s", v)
	}
	// No-op snapshot produces no history step.
	before := len(c.DOEM().Steps())
	ops, err = c.ApplySnapshot(guidegen.T2, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 0 || len(c.DOEM().Steps()) != before {
		t.Error("no-op snapshot recorded a step")
	}
}

func TestSnapshotAtAndHistory(t *testing.T) {
	db, _ := guidegen.PaperGuide()
	c, _ := paperDB(t)
	s := c.SnapshotAt(timestamp.MustParse("31Dec96"))
	if !s.Equal(db) {
		t.Error("pre-history snapshot differs from original")
	}
	h := c.History()
	if len(h) != 3 {
		t.Errorf("history steps = %d", len(h))
	}
}

func TestInvalidationAfterApply(t *testing.T) {
	db, ids := guidegen.PaperGuide()
	c := New("guide", doem.New(db))
	// Force the encoding to exist.
	if _, err := c.QueryTranslated(`select guide.restaurant`); err != nil {
		t.Fatal(err)
	}
	if err := c.Apply(guidegen.T1, change.Set{
		change.CreNode{Node: oem.NodeID(900), Value: value.Str("Hakata")},
		change.AddArc{Parent: ids.Guide, Label: "restaurant", Child: 900},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := c.QueryTranslated(`select guide.<add>restaurant`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("stale encoding after Apply: rows = %d, want 1", res.Len())
	}
}

func TestUpdateStatement(t *testing.T) {
	db, ids := guidegen.PaperGuide()
	c := New("guide", doem.New(db))
	set, err := c.Update(timestamp.MustParse("1Jan97"),
		`update guide.restaurant.price := 25 where guide.restaurant.name = "Janta"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("set = %s", set)
	}
	if v := c.Current().MustValue(ids.JantaPrice); !v.Equal(value.Str("moderate")) {
		// Janta's price was the string "moderate"; the update replaced it.
		if !v.Equal(value.Int(25)) {
			t.Errorf("price = %s", v)
		}
	}
	// The change is queryable as history.
	res, err := c.Query(`select OV, NV from guide.restaurant.price<upd from OV to NV>`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("upd rows = %d", res.Len())
	}
	// Insert through the same API allocates fresh ids safely.
	set, err = c.Update(timestamp.MustParse("2Jan97"),
		`insert guide.restaurant.comment := "new" where guide.restaurant.name = "Janta"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 2 {
		t.Errorf("insert set = %s", set)
	}
	// A no-match update records no step.
	before := len(c.DOEM().Steps())
	set, err = c.Update(timestamp.MustParse("3Jan97"),
		`update guide.restaurant.price := 1 where guide.restaurant.name = "Nobody"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 0 || len(c.DOEM().Steps()) != before {
		t.Error("no-match update recorded a step")
	}
}

// TestApplyMatchesFromHistory: a history applied step by step through
// DB.Apply, with both strategies queried between steps, answers every
// query the way a DB built from the whole history does. Apply must drop
// the cached encoding and fold each step into the direct engine's index
// (index_advances_total moves) instead of leaving it to be rebuilt
// (index_builds_total stays flat after the first query).
func TestApplyMatchesFromHistory(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	initial, h := guidegen.GenerateHistory(7, 8, 12, 4)
	queries := []string{
		`select guide.restaurant`,
		`select guide.<add>restaurant`,
		`select guide.<rem>restaurant`,
		`select guide.restaurant.price<upd at T>`,
		`select guide.<add at T>restaurant.name`,
		`select guide.restaurant.comment<cre at T> where T > 3Jan97`,
	}
	got := New("guide", doem.New(initial.Clone()))
	if _, err := got.Query(queries[0]); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for i, step := range h {
		snap := obs.Snapshot()
		if err := got.Apply(step.At, step.Ops); err != nil {
			t.Fatal(err)
		}
		direct := make([][]oem.NodeID, len(queries))
		for j, q := range queries {
			res, err := got.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			direct[j] = res.FirstColumnNodes()
		}
		after := obs.Snapshot()
		builds := after.Counter("index_builds_total") - snap.Counter("index_builds_total")
		advances := after.Counter("index_advances_total") - snap.Counter("index_advances_total")
		if builds != 0 || advances != 1 {
			t.Errorf("step %d: index builds = %d, advances = %d, want 0 and 1", i, builds, advances)
		}
		d, err := doem.FromHistory(initial, h[:i+1])
		if err != nil {
			t.Fatal(err)
		}
		want := New("guide", d)
		for j, q := range queries {
			dw, err := want.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			tg, err := got.QueryTranslated(q)
			if err != nil {
				t.Fatal(err)
			}
			wn := dw.FirstColumnNodes()
			seen[q] = seen[q] || len(wn) > 0
			if !equalIDs(direct[j], wn) {
				t.Errorf("step %d, %s: direct after Apply = %v, from history = %v", i, q, direct[j], wn)
			}
			if tn := got.MapToDOEM(tg.FirstColumnNodes()); !equalIDs(tn, wn) {
				t.Errorf("step %d, %s: translated after Apply = %v, from history = %v", i, q, tn, wn)
			}
		}
	}
	for _, q := range queries {
		if !seen[q] {
			t.Errorf("%s returned no rows at any step", q)
		}
	}
}

// TestRefusedApplyChangesNothing: a change set the DOEM database refuses
// reaches neither the index nor the encoding, so both strategies answer as
// before, the index is neither advanced nor dropped for a rebuild, and the
// next accepted step is folded in.
func TestRefusedApplyChangesNothing(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	c, ids := paperDB(t)
	indexDelta := func(since *obs.Snap) (builds, advances int64) {
		now := obs.Snapshot()
		return now.Counter("index_builds_total") - since.Counter("index_builds_total"),
			now.Counter("index_advances_total") - since.Counter("index_advances_total")
	}
	const q = `select guide.restaurant`
	rows := func() (direct, trans []oem.NodeID) {
		t.Helper()
		d, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := c.QueryTranslated(q)
		if err != nil {
			t.Fatal(err)
		}
		return d.FirstColumnNodes(), c.MapToDOEM(tr.FirstColumnNodes())
	}
	d0, t0 := rows()
	add := change.Set{
		change.CreNode{Node: oem.NodeID(900), Value: value.Str("Hakata")},
		change.AddArc{Parent: ids.Guide, Label: "restaurant", Child: 900},
	}
	// guidegen.T1 precedes the last recorded step: a stale timestamp.
	snap := obs.Snapshot()
	if err := c.Apply(guidegen.T1, add); err == nil {
		t.Fatal("Apply at a stale time succeeded")
	}
	if d1, t1 := rows(); !equalIDs(d1, d0) || !equalIDs(t1, t0) {
		t.Errorf("refused Apply changed results: direct %v -> %v, translated %v -> %v", d0, d1, t0, t1)
	}
	if b, a := indexDelta(snap); b != 0 || a != 0 {
		t.Errorf("refused Apply: index builds = %d, advances = %d, want 0 and 0", b, a)
	}
	snap = obs.Snapshot()
	if err := c.Apply(guidegen.T3.Add(86400e9), add); err != nil {
		t.Fatal(err)
	}
	d2, t2 := rows()
	if len(d2) != len(d0)+1 || !equalIDs(t2, d2) {
		t.Errorf("after accepted Apply: direct %v, translated %v, want %d rows on both", d2, t2, len(d0)+1)
	}
	if b, a := indexDelta(snap); b != 0 || a != 1 {
		t.Errorf("accepted Apply: index builds = %d, advances = %d, want 0 and 1", b, a)
	}
}
