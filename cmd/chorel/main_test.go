package main

import (
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lore"
)

// TestRunUpdatePersists: an update statement addressed to a database of
// the -store directory reaches the store's log, so reopening the directory
// sees the step.
func TestRunUpdatePersists(t *testing.T) {
	dir := t.TempDir()
	db, ids := guidegen.PaperGuide()
	d, err := doem.FromHistory(db, guidegen.PaperHistory(ids))
	if err != nil {
		t.Fatal(err)
	}
	steps := len(d.Steps())
	store, err := lore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutDOEM("g2", d); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := openSession(dir, nil, "direct")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.runUpdate(`update g2.restaurant.price := 99`); err != nil {
		t.Fatal(err)
	}
	if err := s.close(); err != nil {
		t.Fatal(err)
	}

	re, err := lore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, err := re.GetDOEM("g2")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.Steps()); n != steps+1 {
		t.Fatalf("reopened store has %d steps, want %d", n, steps+1)
	}
}

// TestSealedHistoryReachesEveryStrategy: after a seal, the translated
// strategy and .history see the whole stored history, not only the active
// segment.
func TestSealedHistoryReachesEveryStrategy(t *testing.T) {
	dir := t.TempDir()
	db, ids := guidegen.PaperGuide()
	h := guidegen.PaperHistory(ids)
	d, err := doem.FromHistory(db, h)
	if err != nil {
		t.Fatal(err)
	}
	store, err := lore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.PutDOEM("g2", d); err != nil {
		t.Fatal(err)
	}
	if err := store.Checkpoint("g2"); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	const q = `select g2.restaurant<cre at T> where T > 1Jan90`
	for _, strategy := range []string{"direct", "translated"} {
		s, err := openSession(dir, nil, strategy)
		if err != nil {
			t.Fatal(err)
		}
		if seg, _ := s.store.SegmentStore("g2"); seg.Segments() == 0 {
			t.Fatal("the checkpoint sealed nothing")
		}
		res, err := s.query(q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Errorf("%s: %d rows, want 1 (the restaurant the paper history creates)", strategy, res.Len())
		}
		whole, err := s.whole("g2")
		if err != nil {
			t.Fatal(err)
		}
		if got := whole.ExtractHistory(); len(got) != len(h) {
			t.Errorf(".history g2 prints %d steps, want %d", len(got), len(h))
		}
		if err := s.close(); err != nil {
			t.Fatal(err)
		}
	}
}
