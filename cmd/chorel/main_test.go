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
