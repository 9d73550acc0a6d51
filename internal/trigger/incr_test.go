package trigger

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// fullFirings is the reference incremental matching must reproduce: every
// trigger's query evaluated by a fresh engine over the managed database
// after the step applied at t, with t[0] and t[-1] bound as Apply binds
// them, in sorted name order.
func fullFirings(t *testing.T, m *Manager, prev, at timestamp.Time) []string {
	t.Helper()
	eng := lorel.NewEngine()
	eng.Register(m.name, m.d)
	eng.SetPollTimes([]timestamp.Time{orNeg(prev), at})
	names := append([]string(nil), m.order...)
	sort.Strings(names)
	var fired []string
	for _, name := range names {
		res, err := eng.Query(m.triggers[name].Query)
		if err != nil {
			t.Fatalf("reference %s: %v", name, err)
		}
		if res.Len() > 0 {
			fired = append(fired, name)
		}
	}
	return fired
}

// TestIncrementalSuppression checks that Apply only evaluates the
// triggers the delta can affect, that suppression is observable through
// the trigger_* counters, and that the firings are exactly those of
// evaluating every trigger on every step.
func TestIncrementalSuppression(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))

	db, ids := guidegen.PaperGuide()
	m := NewManager("guide", doem.New(db))
	var fired []string
	for name, q := range map[string]string{
		"price-watch": `select NV from guide.restaurant R, R.price<upd at T to NV> where T > t[-1]`,
		"new-rest":    `select guide.<add at T>restaurant where T > t[-1]`,
		"unguarded":   `select guide.restaurant.name`,
	} {
		name := name
		if err := m.Add(Trigger{Name: name, Query: q,
			Action: func(Firing) error { fired = append(fired, name); return nil }}); err != nil {
			t.Fatal(err)
		}
	}
	ev0 := mEvaluated.Value()
	sp0 := mSuppressed.Value()
	var full []string
	for _, step := range []struct {
		at  string
		ops change.Set
	}{
		// A comment change affects neither guarded trigger.
		{"1Jan97", change.Set{
			change.CreNode{Node: 700, Value: value.Str("note")},
			change.AddArc{Parent: ids.Bangkok, Label: "comment", Child: 700},
		}},
		// A price update affects exactly price-watch (plus unguarded).
		{"2Jan97", change.Set{change.UpdNode{Node: ids.Price, Value: value.Int(33)}}},
	} {
		prev, at := m.d.LastStep(), timestamp.MustParse(step.at)
		if err := m.Apply(at, step.ops); err != nil {
			t.Fatal(err)
		}
		full = append(full, fullFirings(t, m, prev, at)...)
	}

	// Step 1: only "unguarded" evaluated; step 2: price-watch + unguarded.
	if evaluated, suppressed := mEvaluated.Value()-ev0, mSuppressed.Value()-sp0; evaluated != 3 || suppressed != 3 {
		t.Errorf("incremental: evaluated=%d suppressed=%d, want 3 and 3", evaluated, suppressed)
	}
	if fmt.Sprint(fired) != fmt.Sprint(full) {
		t.Errorf("firing parity: incremental=%v full=%v", fired, full)
	}
	if len(fired) == 0 {
		t.Error("no trigger fired (test is vacuous)")
	}
}
