package wrapper

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/oemdiff"
	"repro/internal/value"
)

func TestStaticSource(t *testing.T) {
	db, _ := guidegen.PaperGuide()
	s := Static{DB: db}
	got, err := s.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(db) || !s.StableIDs() {
		t.Error("static source misbehaves")
	}
}

func TestMutableSourceSnapshotsIndependent(t *testing.T) {
	db, ids := guidegen.PaperGuide()
	m := NewMutable(db)
	snap1, err := m.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mutate(func(db *oem.Database) error {
		return db.UpdateNode(ids.Price, value.Int(99))
	}); err != nil {
		t.Fatal(err)
	}
	snap2, err := m.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if v := snap1.MustValue(ids.Price); !v.Equal(value.Int(10)) {
		t.Error("earlier snapshot aliased by mutation")
	}
	if v := snap2.MustValue(ids.Price); !v.Equal(value.Int(99)) {
		t.Error("mutation not visible in new snapshot")
	}
	// Identity diff across polls works (stable ids).
	set, err := oemdiff.DiffIdentity(snap1, snap2)
	if err != nil {
		t.Fatal(err)
	}
	if c := oemdiff.Measure(set); c.Updates != 1 || c.Total() != 1 {
		t.Errorf("diff cost = %+v, want one update", c)
	}
}

// TestMutableOneCopyPerVersion: polls of one version return the same
// object, and mutations between polls change one private copy.
func TestMutableOneCopyPerVersion(t *testing.T) {
	db, ids := guidegen.PaperGuide()
	m := NewMutable(db)
	a, _ := m.Poll()
	b, _ := m.Poll()
	if a != b {
		t.Fatal("two polls of one version returned different objects")
	}
	var passed []*oem.Database
	for _, v := range []int64{11, 12} {
		if err := m.Mutate(func(db *oem.Database) error {
			passed = append(passed, db)
			return db.UpdateNode(ids.Price, value.Int(v))
		}); err != nil {
			t.Fatal(err)
		}
	}
	if passed[0] == a || passed[1] != passed[0] {
		t.Error("mutations did not share one private copy of the polled version")
	}
	c, _ := m.Poll()
	if c != passed[1] || !c.MustValue(ids.Price).Equal(value.Int(12)) {
		t.Error("poll after mutations does not return the mutated version")
	}
}

// TestMutableConcurrentPollMutate reads polled snapshots in full while a
// writer mutates the source; run it with -race.
func TestMutableConcurrentPollMutate(t *testing.T) {
	ev := guidegen.NewEvolver(6, 30)
	m := NewMutable(ev.DB)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap, err := m.Poll()
				if err != nil {
					t.Error(err)
					return
				}
				if err := snap.Validate(); err != nil {
					t.Error(err)
					return
				}
				_ = snap.Fingerprint()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		if err := m.Mutate(func(db *oem.Database) error {
			ev.DB = db
			ev.Step(3)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestUnstableSourceFreshIDs(t *testing.T) {
	db, _ := guidegen.PaperGuide()
	u := Unstable{Inner: Static{DB: db}}
	s1, err := u.Poll()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := u.Poll()
	if err != nil {
		t.Fatal(err)
	}
	if u.StableIDs() {
		t.Error("unstable source claims stable ids")
	}
	if !oem.Isomorphic(s1, s2) {
		t.Error("unstable polls should be isomorphic")
	}
	// Content preserved relative to the original.
	if !oem.Isomorphic(s1, db) {
		t.Error("unstable copy lost content")
	}
}

func TestCSVSource(t *testing.T) {
	data := "id,title,status\n1,Dune,in\n2,Neuromancer,out\n"
	src := NewCSV("book", "id", func() (string, error) { return data, nil })
	s1, err := src.Poll()
	if err != nil {
		t.Fatal(err)
	}
	books := s1.OutLabeled(s1.Root(), "book")
	if len(books) != 2 {
		t.Fatalf("books = %d", len(books))
	}
	// Columns become labeled atoms with coerced values.
	title := s1.OutLabeled(books[0].Child, "title")
	if len(title) != 1 || !s1.MustValue(title[0].Child).Equal(value.Str("Dune")) {
		t.Error("title cell wrong")
	}
	id := s1.OutLabeled(books[0].Child, "id")
	if len(id) != 1 || !s1.MustValue(id[0].Child).Equal(value.Int(1)) {
		t.Error("id cell not coerced to int")
	}

	// A status flip produces exactly one update under identity diff.
	data = "id,title,status\n1,Dune,out\n2,Neuromancer,out\n"
	s2, err := src.Poll()
	if err != nil {
		t.Fatal(err)
	}
	set, err := oemdiff.DiffIdentity(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if c := oemdiff.Measure(set); c.Updates != 1 || c.Total() != 1 {
		t.Errorf("diff = %+v, want a single update", c)
	}

	// A new row creates objects; a removed row removes arcs.
	data = "id,title,status\n1,Dune,out\n3,Snow Crash,in\n"
	s3, err := src.Poll()
	if err != nil {
		t.Fatal(err)
	}
	set, err = oemdiff.DiffIdentity(s2, s3)
	if err != nil {
		t.Fatal(err)
	}
	c := oemdiff.Measure(set)
	if c.Creates == 0 || c.Removes == 0 {
		t.Errorf("diff = %+v, want creations and removals", c)
	}
}

func TestCSVErrors(t *testing.T) {
	src := NewCSV("row", "missing", func() (string, error) { return "a,b\n1,2\n", nil })
	if _, err := src.Poll(); err == nil || !strings.Contains(err.Error(), "key column") {
		t.Errorf("missing key column: %v", err)
	}
	src = NewCSV("row", "a", func() (string, error) { return "", nil })
	if _, err := src.Poll(); err == nil {
		t.Error("empty csv accepted")
	}
	src = NewCSV("row", "a", func() (string, error) { return "", fmt.Errorf("fetch failed") })
	if _, err := src.Poll(); err == nil {
		t.Error("fetch error swallowed")
	}
}

func TestFuncSource(t *testing.T) {
	calls := 0
	f := Func{PollFunc: func() (*oem.Database, error) {
		calls++
		db, _ := guidegen.PaperGuide()
		return db, nil
	}, Stable: true}
	if _, err := f.Poll(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !f.StableIDs() {
		t.Error("func source misbehaves")
	}
}
