package qss

import (
	"testing"
	"time"

	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/wrapper"
)

// TestSoakLongHistoryWithTruncation runs a long polling campaign with
// periodic truncation — the operating regime the paper's Section 6.1
// space discussion anticipates — and verifies the accumulated state stays
// feasible and bounded.
func TestSoakLongHistoryWithTruncation(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped with -short")
	}
	ev := guidegen.NewEvolver(13, 120)
	src := wrapper.NewMutable(ev.DB)
	svc := NewService(nil)
	err := svc.Subscribe(Subscription{
		Name: "Guide", SourceName: "guide", Source: src,
		Polling: `select guide.restaurant`,
		Filter:  `select Guide.restaurant<cre at T> where T > t[-1]`,
	})
	if err != nil {
		t.Fatal(err)
	}

	at := timestamp.MustParse("1Jan97")
	var annotHighWater int
	for cycle := 0; cycle < 150; cycle++ {
		if err := src.Mutate(func(db *oem.Database) error { ev.DB = db; ev.Step(8); return nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Poll("Guide", at); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		// Every 25 cycles, truncate everything older than 10 cycles.
		if cycle%25 == 24 {
			cut := at.Add(-10 * 24 * time.Hour)
			if err := svc.Truncate("Guide", cut); err != nil {
				t.Fatalf("cycle %d truncate: %v", cycle, err)
			}
			d, _, _ := svc.History("Guide")
			if !d.Feasible() {
				t.Fatalf("cycle %d: infeasible after truncation", cycle)
			}
			if n := d.NumAnnotations(); n > annotHighWater {
				annotHighWater = n
			}
		}
		at = at.Add(24 * time.Hour)
	}
	d, times, err := svc.History("Guide")
	if err != nil {
		t.Fatal(err)
	}
	if !d.Feasible() {
		t.Error("final state infeasible")
	}
	// Truncation keeps the retained window bounded: far fewer polling
	// times than cycles.
	if len(times) >= 150 {
		t.Errorf("poll times = %d; truncation did not bound the window", len(times))
	}
	// Annotation count stays around the windowed level rather than growing
	// with total history (150 cycles x 8 ops would dwarf this).
	if n := d.NumAnnotations(); n > annotHighWater*3+1000 {
		t.Errorf("annotations = %d (high water %d); unbounded growth suspected", n, annotHighWater)
	}
}
