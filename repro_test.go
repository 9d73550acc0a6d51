// Tests exercising the public facade end to end — the surface a downstream
// user of this library sees.
package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/guidegen"
)

// buildGuide constructs a small guide through the facade only.
func buildGuide(t testing.TB) (*repro.OEM, repro.NodeID, repro.NodeID) {
	t.Helper()
	db := repro.NewOEM()
	rest := db.CreateNode(repro.Complex())
	if err := db.AddArc(db.Root(), "restaurant", rest); err != nil {
		t.Fatal(err)
	}
	name := db.CreateNode(repro.Str("Bangkok Cuisine"))
	if err := db.AddArc(rest, "name", name); err != nil {
		t.Fatal(err)
	}
	price := db.CreateNode(repro.Int(10))
	if err := db.AddArc(rest, "price", price); err != nil {
		t.Fatal(err)
	}
	return db, rest, price
}

func TestFacadeEndToEnd(t *testing.T) {
	db, _, price := buildGuide(t)
	cdb := repro.Open("guide", db)

	if err := cdb.Apply(repro.MustParseTime("1Jan97"), repro.ChangeSet{
		repro.UpdNode{Node: price, Value: repro.Int(20)},
	}); err != nil {
		t.Fatal(err)
	}
	res, err := cdb.Query(`select OV, NV from guide.restaurant.price<upd from OV to NV>`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	ov := res.Values("old-value")
	if len(ov) != 1 || !ov[0].Equal(repro.Int(10)) {
		t.Errorf("old-value = %v", ov)
	}

	// Time travel through the facade.
	snap := cdb.SnapshotAt(repro.MustParseTime("31Dec96"))
	rests := snap.OutLabeled(snap.Root(), "restaurant")
	if len(rests) != 1 {
		t.Fatalf("restaurants = %d", len(rests))
	}
	prices := snap.OutLabeled(rests[0].Child, "price")
	if v := snap.MustValue(prices[0].Child); !v.Equal(repro.Int(10)) {
		t.Errorf("historical price = %s", v)
	}
}

func TestFacadeHistoryRoundTrip(t *testing.T) {
	db, rest, _ := buildGuide(t)
	h := repro.History{
		{At: repro.MustParseTime("1Jan97"), Ops: repro.ChangeSet{
			repro.CreNode{Node: 100, Value: repro.Str("Thai")},
			repro.AddArc{Parent: rest, Label: "cuisine", Child: 100},
		}},
	}
	cdb, err := repro.OpenWithHistory("guide", db, h)
	if err != nil {
		t.Fatal(err)
	}
	got := cdb.History()
	if len(got) != 1 || len(got[0].Ops) != 2 {
		t.Errorf("extracted history = %v", got)
	}
}

func TestFacadeDiffAndStore(t *testing.T) {
	db, _, price := buildGuide(t)
	next := db.Clone()
	if err := next.UpdateNode(price, repro.Int(30)); err != nil {
		t.Fatal(err)
	}
	set, err := repro.DiffSnapshots(db, next)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Errorf("diff = %s", set)
	}

	store, err := repro.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cdb := repro.Open("guide", db)
	if err := cdb.Save(store); err != nil {
		t.Fatal(err)
	}
	back, err := repro.LoadDB(store, "guide")
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "guide" {
		t.Errorf("name = %q", back.Name())
	}
}

func TestSaveLoad(t *testing.T) {
	store, err := repro.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db, ids := guidegen.PaperGuide()
	c, err := repro.OpenWithHistory("guide", db, guidegen.PaperHistory(ids))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(store); err != nil {
		t.Fatal(err)
	}
	back, err := repro.LoadDB(store, "guide")
	if err != nil {
		t.Fatal(err)
	}
	if !back.DOEM().Equal(c.DOEM()) {
		t.Error("reloaded database differs")
	}
	// And it still answers queries.
	res, err := back.Query(`select guide.<add>restaurant`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("rows = %d", res.Len())
	}
	if _, err := repro.LoadDB(store, "missing"); err == nil {
		t.Error("loading missing database succeeded")
	}
}

func TestFacadeQSS(t *testing.T) {
	db, _, _ := buildGuide(t)
	src := repro.NewMutableSource(db)
	var got []repro.Notification
	svc := repro.NewQSS(func(n repro.Notification) { got = append(got, n) })
	err := svc.Subscribe(repro.Subscription{
		Name: "R", SourceName: "guide", Source: src,
		Polling: `select guide.restaurant`,
		Filter:  `select R.restaurant<cre at T> where T > t[-1]`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Poll("R", repro.MustParseTime("1Jan97")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("notifications = %d", len(got))
	}
}

func TestFacadeTriggers(t *testing.T) {
	db, _, price := buildGuide(t)
	mgr := repro.NewTriggerManager("guide", repro.NewDOEM(db))
	fired := 0
	err := mgr.Add(repro.Trigger{
		Name:   "watch",
		Query:  `select NV from guide.restaurant.price<upd at T to NV> where T > t[-1]`,
		Action: func(f repro.Firing) error { fired++; return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr.Apply(repro.MustParseTime("1Jan97"), repro.ChangeSet{
		repro.UpdNode{Node: price, Value: repro.Int(99)},
	}); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired = %d", fired)
	}
}

func TestFacadeFreqAndEngine(t *testing.T) {
	f, err := repro.ParseFreq("every 10 minutes")
	if err != nil {
		t.Fatal(err)
	}
	next := f.Next(repro.MustParseTime("1Jan97"))
	if next.String() != "1Jan97 00:10" {
		t.Errorf("Next = %s", next)
	}

	db, _, _ := buildGuide(t)
	eng := repro.NewEngine()
	eng.Register("g", repro.WrapOEM(db))
	res, err := eng.Query(`select g.restaurant.name`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Errorf("rows = %d", res.Len())
	}
}

func ExampleOpen() {
	db := repro.NewOEM()
	rest := db.CreateNode(repro.Complex())
	_ = db.AddArc(db.Root(), "restaurant", rest)
	price := db.CreateNode(repro.Int(10))
	_ = db.AddArc(rest, "price", price)

	cdb := repro.Open("guide", db)
	_ = cdb.Apply(repro.MustParseTime("1Jan97"), repro.ChangeSet{
		repro.UpdNode{Node: price, Value: repro.Int(20)},
	})
	res, _ := cdb.Query(`select NV from guide.restaurant.price<upd to NV>`)
	fmt.Print(res)
	// Output:
	// 1 row(s)
	// new-value: 20
}

func TestFacadeUpdateStatement(t *testing.T) {
	db, _, price := buildGuide(t)
	_ = price
	cdb := repro.Open("guide", db)
	set, err := cdb.Update(repro.MustParseTime("1Jan97"),
		`update guide.restaurant.price := 42`)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("set = %v", set)
	}
	res, err := cdb.Query(`select NV from guide.restaurant.price<upd to NV>`)
	if err != nil {
		t.Fatal(err)
	}
	vals := res.Values("new-value")
	if len(vals) != 1 || !vals[0].Equal(repro.Int(42)) {
		t.Errorf("new-value = %v", vals)
	}
}

func TestFacadeEncodeDecode(t *testing.T) {
	db, _, price := buildGuide(t)
	cdb := repro.Open("guide", db)
	if err := cdb.Apply(repro.MustParseTime("1Jan97"), repro.ChangeSet{
		repro.UpdNode{Node: price, Value: repro.Int(20)},
	}); err != nil {
		t.Fatal(err)
	}
	enc := repro.Encode(cdb.DOEM())
	back, err := repro.Decode(enc.DB)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Feasible() {
		t.Error("decoded database infeasible")
	}
}
