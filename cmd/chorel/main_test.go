package main

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lore"
	"repro/internal/segment"
	"repro/internal/value"
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

// TestUpdateCostIgnoresHistoryLength: an update on a stored database reads
// only what it changes and the store's summary. Two stores hold the same
// current snapshot, one with 8x the history (and 8x the sealed segments);
// one update on the longer must allocate less than twice as much.
func TestUpdateCostIgnoresHistoryLength(t *testing.T) {
	update := func(steps int) uint64 {
		dir := t.TempDir()
		store, err := lore.OpenSegmented(dir, nil, &segment.Policy{SealAnnotations: 2})
		if err != nil {
			t.Fatal(err)
		}
		guide, ids := guidegen.PaperGuide()
		if err := store.PutDOEM("g", doem.New(guide)); err != nil {
			t.Fatal(err)
		}
		// Toggle one price and back: the snapshot ends where it began.
		for i := 0; i < steps; i++ {
			price := value.Int(10)
			if i%2 == 0 {
				price = value.Int(11)
			}
			set := change.Set{change.UpdNode{Node: ids.Price, Value: price}}
			if err := store.ApplySet("g", guidegen.T1.Add(time.Duration(i)*time.Hour), set); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		s, err := openSession(dir, nil, "direct")
		if err != nil {
			t.Fatal(err)
		}
		defer s.close()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := s.runUpdate(`update g.restaurant.price := 99`); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	short, long := update(16), update(128)
	t.Logf("update allocates %d B after 16 steps, %d B after 128", short, long)
	if long >= 2*short {
		t.Errorf("an update after 8x the history allocates %.1fx the bytes, want < 2x", float64(long)/float64(short))
	}
}
