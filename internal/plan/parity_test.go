// Package plan_test holds the planner's parity property test. It lives in
// an external test package so it can drive the full stack — lorel engines
// over raw DOEM databases, index.Graph wrappers, and segmented stores —
// without an import cycle back into internal/plan.
package plan_test

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/index"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/timestamp"
)

// candidateTimes collects instants that exercise every interesting case:
// each recorded step time exactly (the inclusive boundary), one second on
// either side of it, and instants before the first and after the last
// change.
func candidateTimes(d *doem.Database) []timestamp.Time {
	steps := d.Steps()
	var ts []timestamp.Time
	for _, s := range steps {
		ts = append(ts, s, s.Add(-1e9), s.Add(1e9))
	}
	if len(steps) > 0 {
		ts = append(ts, steps[0].Add(-86400e9), steps[len(steps)-1].Add(86400e9))
	} else {
		ts = append(ts, timestamp.MustParse("1Jan97"))
	}
	return ts
}

// randomQuery draws one query from a template pool biased toward shapes the
// planner acts on — multi-generator joins with selective predicates, wide
// generators written before narrow ones, annotation and <at T> constraints
// — plus shapes it must refuse (aggregates, path-valued select items) so
// the written-order plan is exercised under the same parity oracle.
func randomQuery(rng *rand.Rand, times []timestamp.Time) string {
	at := func() string { return fmt.Sprintf("%q", times[rng.Intn(len(times))].String()) }
	price := func() int { return 5 + rng.Intn(40) }
	switch rng.Intn(16) {
	case 0:
		return `select guide.restaurant.name`
	case 1:
		return fmt.Sprintf(`select N from guide.restaurant R, R.name N where R.price < %d`, price())
	case 2:
		// The headline reorder shape: wide subtree before a narrow,
		// predicated label generator.
		return fmt.Sprintf(`select X from guide.restaurant R, R.# X, R.price P where P < %d`, price())
	case 3:
		return fmt.Sprintf(`select N from guide.# X, guide.restaurant R, R.name N where R.price < %d`, price())
	case 4:
		return fmt.Sprintf(`select guide.<at %s>restaurant.name`, at())
	case 5:
		return fmt.Sprintf(`select R from guide.<at %s>restaurant R, R.<at %s>price P where P < %d`,
			at(), at(), price())
	case 6:
		return `select N, T from guide.<add at T>restaurant R, R.name N`
	case 7:
		return fmt.Sprintf(`select N from guide.<add at T>restaurant R, R.name N where T > %s`, at())
	case 8:
		return `select T from guide.<rem at T>restaurant`
	case 9:
		return `select T, OV, NV from guide.restaurant.price<upd at T from OV to NV>`
	case 10:
		return `select guide.#.name`
	case 11:
		return fmt.Sprintf(`select N, T from guide.restaurant<cre at T> R, R.name N where T >= %s`, at())
	case 12:
		return fmt.Sprintf(`select T from guide.<add at T>restaurant where T > t[-%d]`, 1+rng.Intn(5))
	case 13:
		// Three-way join with a cross-variable predicate.
		return fmt.Sprintf(`select N, C from guide.restaurant R, R.name N, R.cuisine C where R.price < %d`, price())
	case 14:
		// Aggregate select: unplannable, must fall back byte-identically.
		return `select count(R.comment) from guide.restaurant R where R.price < 20`
	default:
		return `select guide.restaurant.commen%`
	}
}

// checkParity runs q through the planner-off reference engine and the
// planner-on engine, requiring byte-identical output.
func checkParity(t *testing.T, label, q string, off, on *lorel.Engine) {
	t.Helper()
	want, err := off.Query(q)
	if err != nil {
		t.Fatalf("%s: planner-off %q: %v", label, q, err)
	}
	got, err := on.Query(q)
	if err != nil {
		t.Fatalf("%s: planner-on %q: %v", label, q, err)
	}
	if want.String() != got.String() {
		t.Errorf("%s: planned result diverges for %q:\nplanner-off:\n%s\nplanner-on:\n%s",
			label, q, want, got)
	}
}

// pair builds the two engines (planner off, planner on) over the same
// graph, sharing poll times.
func pair(g lorel.Graph, polls []timestamp.Time) (off, on *lorel.Engine) {
	off = lorel.NewEngine()
	off.SetPlanning(false)
	on = lorel.NewEngine()
	on.SetPlanning(true)
	for _, e := range []*lorel.Engine{off, on} {
		e.Register("guide", g)
		e.SetPollTimes(polls)
	}
	return off, on
}

// TestPlannerEvalParity is the tentpole's property test: over randomized
// histories, planner-on evaluation must be byte-identical to planner-off
// written-order evaluation on well over 100 randomized queries, against a
// monolithic DOEM database, its indexed wrapper, and a segmented store of
// the same history.
func TestPlannerEvalParity(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	snap0 := obs.Snapshot()
	total := 0
	for seed := int64(1); seed <= 4; seed++ {
		initial, h := guidegen.GenerateHistory(seed, 12, 25, 6)
		mono, err := doem.FromHistory(initial.Clone(), h)
		if err != nil {
			t.Fatalf("seed %d: FromHistory: %v", seed, err)
		}

		// Segmented store holding the same history, sealed at random points.
		sealRng := rand.New(rand.NewSource(seed * 104729))
		st, err := segment.Create(filepath.Join(t.TempDir(), "store"), doem.New(initial), nil, nil)
		if err != nil {
			t.Fatalf("seed %d: segment.Create: %v", seed, err)
		}
		defer st.Close()
		for i, step := range h {
			if err := st.Apply(step.At, step.Ops); err != nil {
				t.Fatalf("seed %d: segmented apply step %d: %v", seed, i, err)
			}
			if sealRng.Intn(5) == 0 {
				if err := st.Seal(); err != nil {
					t.Fatalf("seed %d: seal after step %d: %v", seed, i, err)
				}
			}
		}

		steps := mono.Steps()
		polls := steps[:len(steps)/2+1]
		rawOff, rawOn := pair(mono, polls)
		idxOff, idxOn := pair(index.NewGraph(mono), polls)
		segOff, segOn := pair(st.Graph(), polls)

		rng := rand.New(rand.NewSource(seed * 7919))
		times := candidateTimes(mono)
		for i := 0; i < 30; i++ {
			q := randomQuery(rng, times)
			checkParity(t, fmt.Sprintf("seed %d raw", seed), q, rawOff, rawOn)
			checkParity(t, fmt.Sprintf("seed %d indexed", seed), q, idxOff, idxOn)
			checkParity(t, fmt.Sprintf("seed %d segmented", seed), q, segOff, segOn)
			total++
		}
	}
	if total < 100 {
		t.Fatalf("property test ran only %d queries, want >= 100", total)
	}

	// The property is vacuous if the planner never actually ran or never
	// reordered anything: require both over the whole run.
	snap1 := obs.Snapshot()
	if d := snap1.Counters["lorel_plan_execs_total"] - snap0.Counters["lorel_plan_execs_total"]; d == 0 {
		t.Error("planner executed no queries over the entire property run")
	}
	if d := snap1.Counters["lorel_plan_reordered_total"] - snap0.Counters["lorel_plan_reordered_total"]; d == 0 {
		t.Error("planner reordered no queries over the entire property run")
	}
}
