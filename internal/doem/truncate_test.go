package doem

import (
	"testing"

	"repro/internal/guidegen"
	"repro/internal/timestamp"
)

func TestTruncateCollapsesOldHistory(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	// Truncate between t2 and t3: the price update and Hakata creation
	// collapse into the base; only the parking removal survives.
	cut := timestamp.MustParse("6Jan97")
	td, err := d.Truncate(cut)
	if err != nil {
		t.Fatal(err)
	}
	if got := td.NumAnnotations(); got != 1 {
		t.Errorf("annotations after truncate = %d, want 1 (the rem)", got)
	}
	if len(td.Steps()) != 1 || !td.Steps()[0].Equal(f.t3) {
		t.Errorf("steps after truncate = %v", td.Steps())
	}
	// The current snapshot is unchanged.
	if !td.Current().Equal(d.Current()) {
		t.Error("truncation changed the current snapshot")
	}
	// Snapshots after the cut still agree with the original database.
	for _, ts := range []string{"6Jan97", "7Jan97", "8Jan97", "9Jan97"} {
		at := timestamp.MustParse(ts)
		if !td.SnapshotAt(at).Equal(d.SnapshotAt(at)) {
			t.Errorf("snapshot at %s differs after truncation", ts)
		}
	}
	// Snapshots at or before the cut collapse to the state at the cut —
	// the documented accuracy loss.
	early := td.SnapshotAt(timestamp.MustParse("31Dec96"))
	if !early.Equal(d.SnapshotAt(cut)) {
		t.Error("pre-cut snapshot should collapse to the cut state")
	}
	// The truncated database remains feasible and queryable.
	if !td.Feasible() {
		t.Error("truncated database infeasible")
	}
}

func TestTruncateAtEndDropsEverything(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	td, err := d.Truncate(timestamp.PosInf)
	if err != nil {
		t.Fatal(err)
	}
	if td.NumAnnotations() != 0 || len(td.Steps()) != 0 {
		t.Errorf("annotations=%d steps=%d, want 0/0", td.NumAnnotations(), len(td.Steps()))
	}
	if !td.Current().Equal(d.Current()) {
		t.Error("current snapshot changed")
	}
}

func TestTruncateBeforeStartIsIdentity(t *testing.T) {
	f := newFixture(t)
	d := f.doem(t)
	td, err := d.Truncate(timestamp.MustParse("1Dec96"))
	if err != nil {
		t.Fatal(err)
	}
	if !td.Equal(d) {
		t.Error("truncating before the first step should preserve everything")
	}
}

func TestTruncateRandomHistories(t *testing.T) {
	for seed := int64(300); seed < 310; seed++ {
		db, h := randomHistory(seed, 6, 5)
		d, err := FromHistory(db, h)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(h) < 3 {
			continue
		}
		cut := h[len(h)/2].At
		td, err := d.Truncate(cut)
		if err != nil {
			t.Fatalf("seed %d: truncate: %v", seed, err)
		}
		if !td.Current().Equal(d.Current()) {
			t.Errorf("seed %d: current snapshot changed", seed)
		}
		for _, step := range h {
			if step.At.After(cut) {
				if !td.SnapshotAt(step.At).Equal(d.SnapshotAt(step.At)) {
					t.Errorf("seed %d: post-cut snapshot at %s differs", seed, step.At)
				}
			}
		}
		if !td.Feasible() {
			t.Errorf("seed %d: truncated database infeasible", seed)
		}
		if td.NumAnnotations() > d.NumAnnotations() {
			t.Errorf("seed %d: truncation grew the database", seed)
		}
	}
}

// TestTruncateEveryStepOfChurn truncates adversarial histories (shared
// children, cycles, subtrees cut loose, islands a <-> b created with no
// path from the root) at every step time: each truncation must succeed and
// agree with the original database at every later step.
func TestTruncateEveryStepOfChurn(t *testing.T) {
	for _, seed := range []int64{3, 9, 17, 28, 41} {
		c := guidegen.NewChurn(seed, 60)
		d := New(c.DB)
		at := timestamp.MustParse("1Jan97")
		for i := 0; i < 32; i++ {
			set := c.Step(1 + int(seed+int64(i))%9)
			if len(set) == 0 {
				continue
			}
			at = at.Add(3600e9)
			if err := d.Apply(at, set); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, i, err)
			}
		}
		steps := d.Steps()
		for i, cut := range steps {
			td, err := d.Truncate(cut)
			if err != nil {
				t.Fatalf("seed %d: truncate at step %d of %d (%s): %v", seed, i, len(steps), cut, err)
			}
			for _, u := range steps[i+1:] {
				if !td.SnapshotAt(u).Equal(d.SnapshotAt(u)) {
					t.Fatalf("seed %d: truncated at %s, snapshot at %s differs", seed, cut, u)
				}
			}
		}
	}
}
