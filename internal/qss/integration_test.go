package qss

import (
	"sync"
	"testing"
	"time"

	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/wrapper"
)

// TestLongRunEvolvingSource drives many polling cycles over a synthetic
// evolving guide and cross-checks QSS's accumulated history against ground
// truth from the source at every step.
func TestLongRunEvolvingSource(t *testing.T) {
	ev := guidegen.NewEvolver(3, 60)
	src := wrapper.NewMutable(ev.DB)
	svc := NewService(nil)

	err := svc.Subscribe(Subscription{
		Name:       "Guide",
		SourceName: "guide",
		Source:     src,
		Polling:    `select guide.restaurant`,
		Filter:     `select Guide.restaurant<cre at T> where T > t[-1]`,
	})
	if err != nil {
		t.Fatal(err)
	}

	at := timestamp.MustParse("1Jan97")
	totalNotified := 0
	for cycle := 0; cycle < 30; cycle++ {
		// Evolve the source between polls.
		if cycle > 0 {
			if err := src.Mutate(func(db *oem.Database) error {
				ev.DB = db
				ev.Step(6)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		n, err := svc.Poll("Guide", at)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if n != nil {
			totalNotified += n.Result.Len()
		}
		// Invariant: QSS's current snapshot is isomorphic to the packaged
		// ground truth (same restaurants with same content).
		d, _, err := svc.History("Guide")
		if err != nil {
			t.Fatal(err)
		}
		// Ground truth is the evolver's own state: the version its last
		// mutation wrote, which every poll since must have seen.
		truth := ev.DB
		var roots []oem.NodeID
		for _, a := range truth.Out(truth.Root()) {
			if a.Label == "restaurant" {
				roots = append(roots, a.Child)
			}
		}
		want, _ := truth.CopySubgraph(roots, "restaurant", nil)
		if !oem.Isomorphic(d.Current(), want) {
			t.Fatalf("cycle %d: QSS snapshot diverged from source ground truth", cycle)
		}
		at = at.Add(24 * time.Hour)
	}
	if totalNotified < 5 {
		t.Errorf("only %d creations notified over 30 cycles; evolution too quiet?", totalNotified)
	}
	// The whole accumulated history is feasible.
	d, times, err := svc.History("Guide")
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 30 {
		t.Errorf("poll times = %d", len(times))
	}
	if !d.Feasible() {
		t.Error("long-run DOEM history infeasible")
	}
	// And truncation midway keeps it consistent.
	if err := svc.Truncate("Guide", times[len(times)/2]); err != nil {
		t.Fatal(err)
	}
	d, _, _ = svc.History("Guide")
	if !d.Feasible() {
		t.Error("truncated long-run history infeasible")
	}
}

// TestMutableSourceSharedByConcurrentPolls: subscriptions polling one
// copy-on-write source concurrently, while a writer evolves it, read the
// versions they share without interfering; after the writer stops, each
// history matches the source's final state. Run it with -race.
func TestMutableSourceSharedByConcurrentPolls(t *testing.T) {
	ev := guidegen.NewEvolver(5, 30)
	src := wrapper.NewMutable(ev.DB)
	svc := NewService(nil)
	names := []string{"A", "B", "C", "D"}
	for _, name := range names {
		if err := svc.Subscribe(Subscription{
			Name: name, SourceName: "guide", Source: src,
			Polling: `select guide.restaurant`,
			Filter:  `select ` + name + `.restaurant<cre at T> where T > t[-1]`,
		}); err != nil {
			t.Fatal(err)
		}
	}
	start := timestamp.MustParse("1Jan97")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := src.Mutate(func(db *oem.Database) error {
				ev.DB = db
				ev.Step(4)
				return nil
			}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for _, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if _, err := svc.Poll(name, start.Add(time.Duration(i)*time.Hour)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	// One more version after a poll shared the current one: every
	// subscription must see it, and the evolver holds it.
	if _, err := src.Poll(); err != nil {
		t.Fatal(err)
	}
	if err := src.Mutate(func(db *oem.Database) error {
		ev.DB = db
		ev.Step(4)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	truth := ev.DB
	var roots []oem.NodeID
	for _, a := range truth.OutLabeled(truth.Root(), "restaurant") {
		roots = append(roots, a.Child)
	}
	want, _ := truth.CopySubgraph(roots, "restaurant", nil)
	for _, name := range names {
		if _, err := svc.Poll(name, start.Add(100*time.Hour)); err != nil {
			t.Fatal(err)
		}
		d, _, _ := svc.History(name)
		if !oem.Isomorphic(d.Current(), want) {
			t.Errorf("%s: history diverged from the source's final state", name)
		}
	}
}
