package plan_test

import (
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/timestamp"
)

var stalenessQueries = []string{
	`select N from guide.restaurant R, R.name N where R.price < 20`,
	`select X from guide.restaurant R, R.# X, R.price P where P < 15`,
	`select N, T from guide.<add at T>restaurant R, R.name N`,
}

// reprepares reads the plan-cache re-preparation counter.
func reprepares() int64 {
	return obs.Snapshot().Counters["lorel_plan_reprepares_total"]
}

// checkFresh runs the staleness queries on the planning engine and the
// written-order reference, requiring identical output and at least one
// re-preparation when mutated is set.
func checkFresh(t *testing.T, stage string, mutated bool, on, off *lorel.Engine) {
	t.Helper()
	rep0 := reprepares()
	for _, q := range stalenessQueries {
		got, err := on.Query(q)
		if err != nil {
			t.Fatalf("%s: planned %q: %v", stage, q, err)
		}
		want, err := off.Query(q)
		if err != nil {
			t.Fatalf("%s: written-order %q: %v", stage, q, err)
		}
		if got.String() != want.String() {
			t.Fatalf("%s: stale plan served for %q:\nplanned:\n%s\nwritten order:\n%s",
				stage, q, got, want)
		}
	}
	if mutated && reprepares() == rep0 {
		t.Fatalf("%s: no cached plan re-prepared after mutation", stage)
	}
}

// TestPlannerStalenessIndexed: mutating a DOEM database must re-prepare
// cached plans — the stats version the plan was costed against has moved.
func TestPlannerStalenessIndexed(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	ev := guidegen.NewEvolver(17, 12)
	d := doem.New(ev.DB)
	on := lorel.NewEngine()
	on.SetPlanning(true)
	on.Register("guide", d)
	off := lorel.NewEngine()
	off.SetPlanning(false)
	off.Register("guide", d)

	checkFresh(t, "initial", false, on, off)
	at := timestamp.MustParse("1Jan97")
	for i := 0; i < 5; i++ {
		set := ev.Step(6)
		if len(set) == 0 {
			continue
		}
		if err := d.Apply(at, set); err != nil {
			t.Fatalf("apply step %d: %v", i, err)
		}
		checkFresh(t, fmt.Sprintf("step %d", i), true, on, off)
		at = at.Add(86400e9)
	}
}

// TestPlannerStalenessSegmented: appending to and sealing a segmented
// store must re-prepare cached plans; sealing in particular swaps the
// active segment out from under the stats summary.
func TestPlannerStalenessSegmented(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	initial, h := guidegen.GenerateHistory(23, 10, 16, 5)
	st, err := segment.Create(filepath.Join(t.TempDir(), "store"), doem.New(initial), nil, nil)
	if err != nil {
		t.Fatalf("segment.Create: %v", err)
	}
	defer st.Close()

	half := len(h) / 2
	for i := 0; i < half; i++ {
		if err := st.Apply(h[i].At, h[i].Ops); err != nil {
			t.Fatalf("apply step %d: %v", i, err)
		}
	}

	on := lorel.NewEngine()
	on.SetPlanning(true)
	on.Register("guide", st.Graph())
	off := lorel.NewEngine()
	off.SetPlanning(false)
	off.Register("guide", st.Graph())

	checkFresh(t, "initial", false, on, off)
	for i := half; i < len(h); i++ {
		if err := st.Apply(h[i].At, h[i].Ops); err != nil {
			t.Fatalf("apply step %d: %v", i, err)
		}
		checkFresh(t, fmt.Sprintf("append step %d", i), true, on, off)
		if i%3 == 0 {
			if err := st.Seal(); err != nil {
				t.Fatalf("seal after step %d: %v", i, err)
			}
			checkFresh(t, fmt.Sprintf("seal after step %d", i), true, on, off)
		}
	}
}
