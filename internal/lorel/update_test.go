package lorel

import (
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/value"
)

// updateFixture returns an engine over a plain OEM paper guide plus the db
// itself and an allocator.
func updateFixture(t *testing.T) (*Engine, *oem.Database, *guidegen.PaperIDs, func() oem.NodeID) {
	t.Helper()
	db, ids := guidegen.PaperGuide()
	e := NewEngine()
	e.Register("guide", NewOEMGraph(db))
	next := oem.NodeID(1000)
	return e, db, ids, func() oem.NodeID { next++; return next }
}

func apply(t *testing.T, db *oem.Database, set change.Set) {
	t.Helper()
	if _, err := set.Apply(db); err != nil {
		t.Fatalf("applying compiled set: %v\nset: %s", err, set)
	}
}

func TestUpdateSet(t *testing.T) {
	e, db, ids, _ := updateFixture(t)
	set, err := e.Update(`update guide.restaurant.price := 25 where guide.restaurant.name = "Janta"`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 1 {
		t.Fatalf("set = %s", set)
	}
	apply(t, db, set)
	if v := db.MustValue(ids.JantaPrice); !v.Equal(value.Int(25)) {
		t.Errorf("Janta price = %s, want 25", v)
	}
	// The uncorrelated restaurant is untouched.
	if v := db.MustValue(ids.Price); !v.Equal(value.Int(10)) {
		t.Errorf("Bangkok price = %s, want 10 (unchanged)", v)
	}
}

func TestUpdateSetAllMatches(t *testing.T) {
	e, db, _, _ := updateFixture(t)
	set, err := e.Update(`update guide.restaurant.price := 0`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both restaurants with a price get updated.
	if c := countKind(set); c.upd != 2 || c.cre != 0 {
		t.Fatalf("set = %s", set)
	}
	apply(t, db, set)
}

func TestInsertLiteral(t *testing.T) {
	e, db, ids, alloc := updateFixture(t)
	set, err := e.Update(`insert guide.restaurant.comment := "try the curry" where guide.restaurant.price < 20`, alloc)
	if err != nil {
		t.Fatal(err)
	}
	// Only Bangkok Cuisine (price 10) qualifies: one creNode + one addArc.
	if c := countKind(set); c.cre != 1 || c.add != 1 {
		t.Fatalf("set = %s", set)
	}
	apply(t, db, set)
	comments := db.OutLabeled(ids.Bangkok, "comment")
	if len(comments) != 1 || !db.MustValue(comments[0].Child).Equal(value.Str("try the curry")) {
		t.Error("comment not inserted under Bangkok Cuisine")
	}
}

func TestInsertComplex(t *testing.T) {
	e, db, ids, alloc := updateFixture(t)
	set, err := e.Update(`insert guide.restaurant.hours := complex where guide.restaurant.name = "Janta"`, alloc)
	if err != nil {
		t.Fatal(err)
	}
	apply(t, db, set)
	hours := db.OutLabeled(ids.Janta, "hours")
	if len(hours) != 1 || !db.MustValue(hours[0].Child).IsComplex() {
		t.Error("complex child not inserted")
	}
}

func TestInsertAtRoot(t *testing.T) {
	e, db, _, alloc := updateFixture(t)
	set, err := e.Update(`insert guide.special := "closed Mondays"`, alloc)
	if err != nil {
		t.Fatal(err)
	}
	apply(t, db, set)
	if got := len(db.OutLabeled(db.Root(), "special")); got != 1 {
		t.Errorf("root special children = %d", got)
	}
}

func TestDelete(t *testing.T) {
	e, db, ids, _ := updateFixture(t)
	set, err := e.Update(`delete guide.restaurant.parking where guide.restaurant.name = "Janta"`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := countKind(set); c.rem != 1 {
		t.Fatalf("set = %s", set)
	}
	apply(t, db, set)
	if db.HasArc(ids.Janta, "parking", ids.Parking) {
		t.Error("Janta parking arc survived delete")
	}
	// The shared parking node stays (still reachable from Bangkok).
	if !db.Has(ids.Parking) {
		t.Error("shared node collected though still referenced")
	}
}

func TestDeleteUncorrelatedRemovesAll(t *testing.T) {
	e, db, _, _ := updateFixture(t)
	set, err := e.Update(`delete guide.restaurant.price`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c := countKind(set); c.rem != 2 {
		t.Fatalf("set = %s", set)
	}
	apply(t, db, set)
}

func TestUpdateOnDOEMHistory(t *testing.T) {
	// Updates compiled against a DOEM database apply as a history step —
	// the full "higher-level changes" pipeline.
	db, ids := guidegen.PaperGuide()
	d := doem.New(db)
	e := NewEngine()
	e.Register("guide", d)
	set, err := e.Update(`update guide.restaurant.price := 99 where guide.restaurant.name = "Bangkok Cuisine"`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(guidegen.T1, set); err != nil {
		t.Fatal(err)
	}
	ups := d.UpdTriples(ids.Price)
	if len(ups) != 1 || !ups[0].New.Equal(value.Int(99)) {
		t.Errorf("upd annotations = %v", ups)
	}
}

func TestUpdateParseErrors(t *testing.T) {
	bad := []string{
		`update guide.restaurant.price 25`,              // missing :=
		`update guide := 1`,                             // no steps
		`frobnicate guide.x := 1`,                       // unknown verb
		`update guide.# := 1`,                           // wildcard target
		`update guide.rest% := 1`,                       // glob target
		`update guide.<add>x := 1`,                      // annotated target
		`delete guide.restaurant.price := 5`,            // delete takes no value
		`update guide.restaurant.price := complex`,      // complex only for insert
		`update guide.restaurant.price := guide.x`,      // non-literal value
		`update guide.restaurant.price := 1 extra junk`, // trailing tokens
	}
	for _, src := range bad {
		if _, err := ParseUpdate(src); err == nil {
			t.Errorf("ParseUpdate(%q) succeeded", src)
		}
	}
}

func TestInsertWithoutAllocator(t *testing.T) {
	e, _, _, _ := updateFixture(t)
	if _, err := e.Update(`insert guide.x := 1`, nil); err == nil {
		t.Error("insert without allocator accepted")
	}
}

type kindCount struct{ cre, upd, add, rem int }

func countKind(set change.Set) kindCount {
	var c kindCount
	for _, op := range set {
		switch op.(type) {
		case change.CreNode:
			c.cre++
		case change.UpdNode:
			c.upd++
		case change.AddArc:
			c.add++
		case change.RemArc:
			c.rem++
		}
	}
	return c
}

func TestCompileUpdateReusable(t *testing.T) {
	// A parsed statement compiles repeatedly (canonicalization must not
	// corrupt it).
	e, _, _, _ := updateFixture(t)
	stmt, err := ParseUpdate(`update guide.restaurant.price := 25 where guide.restaurant.name = "Janta"`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		set, err := e.CompileUpdate(stmt, nil)
		if err != nil {
			t.Fatalf("compile %d: %v", i, err)
		}
		if len(set) != 1 {
			t.Fatalf("compile %d: set = %s", i, set)
		}
	}
}
