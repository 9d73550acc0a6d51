package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lorel"
	"repro/internal/obs"
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

// randomQuery draws one query from a template pool covering the paths the
// indexes accelerate: exact-label steps, globs, the '#' wildcard, virtual
// <at T> steps, <add/rem at T> arc annotations, <upd ...> matching and
// <cre at T> node annotations.
func randomQuery(rng *rand.Rand, times []timestamp.Time) string {
	at := func() string { return fmt.Sprintf("%q", times[rng.Intn(len(times))].String()) }
	switch rng.Intn(10) {
	case 0:
		return `select guide.restaurant.name`
	case 1:
		return fmt.Sprintf(`select N from guide.restaurant R, R.name N where R.price < %d`, 5+rng.Intn(40))
	case 2:
		return fmt.Sprintf(`select guide.<at %s>restaurant.name`, at())
	case 3:
		return fmt.Sprintf(`select R from guide.<at %s>restaurant R, R.<at %s>price P where P < %d`,
			at(), at(), 5+rng.Intn(40))
	case 4:
		return `select N, T from guide.<add at T>restaurant R, R.name N`
	case 5:
		return `select T from guide.<rem at T>restaurant`
	case 6:
		return `select T, OV, NV from guide.restaurant.price<upd at T from OV to NV>`
	case 7:
		return `select guide.#.name`
	case 8:
		return `select guide.restaurant.commen%`
	default:
		return fmt.Sprintf(`select N, T from guide.restaurant<cre at T> R, R.name N where T >= %s`, at())
	}
}

// TestIndexedEvalParity: over randomized histories, evaluation through the
// memo and on the database must return byte-identical results on well
// over 100 randomized queries.
func TestIndexedEvalParity(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 4; seed++ {
		initial, h := guidegen.GenerateHistory(seed, 12, 25, 6)
		d, err := doem.FromHistory(initial, h)
		if err != nil {
			t.Fatalf("seed %d: FromHistory: %v", seed, err)
		}

		raw := lorel.NewEngine()
		raw.Register("guide", d)
		ig := NewGraph(d)
		idx := lorel.NewEngine()
		idx.Register("guide", ig)

		rng := rand.New(rand.NewSource(seed * 7919))
		times := candidateTimes(d)
		for i := 0; i < 30; i++ {
			q := randomQuery(rng, times)
			want, err := raw.Query(q)
			if err != nil {
				t.Fatalf("seed %d: database %q: %v", seed, q, err)
			}
			got, err := idx.Query(q)
			if err != nil {
				t.Fatalf("seed %d: memo %q: %v", seed, q, err)
			}
			if want.String() != got.String() {
				t.Errorf("seed %d: memo result diverges for %q:\ndatabase:\n%s\nmemo:\n%s",
					seed, q, want, got)
			}
			total++
		}
	}
	if total < 100 {
		t.Fatalf("property test ran only %d queries, want >= 100", total)
	}
}

// TestIndexParityAfterApply checks staleness handling: after the database
// mutates underneath the memo, queries must reflect the new version
// with or without an explicit Invalidate call.
func TestIndexParityAfterApply(t *testing.T) {
	for _, explicit := range []bool{false, true} {
		e := guidegen.NewEvolver(11, 10)
		d := doem.New(e.DB)
		ig := NewGraph(d)
		raw := lorel.NewEngine()
		raw.Register("guide", d)
		idx := lorel.NewEngine()
		idx.Register("guide", ig)

		at := timestamp.MustParse("1Jan97")
		for i := 0; i < 8; i++ {
			set := e.Step(5)
			if len(set) > 0 {
				if err := d.Apply(at, set); err != nil {
					t.Fatalf("apply step %d: %v", i, err)
				}
				if explicit {
					ig.Invalidate()
				}
			}
			queries := []string{
				`select guide.restaurant.name`,
				fmt.Sprintf(`select guide.<at %q>restaurant.name`, at.String()),
				`select T from guide.<add at T>restaurant`,
			}
			for _, q := range queries {
				want, err := raw.Query(q)
				if err != nil {
					t.Fatalf("database %q: %v", q, err)
				}
				got, err := idx.Query(q)
				if err != nil {
					t.Fatalf("memo %q: %v", q, err)
				}
				if want.String() != got.String() {
					t.Fatalf("explicit=%v: stale memo result after step %d for %q:\nwant:\n%s\ngot:\n%s",
						explicit, i, q, want, got)
				}
			}
			at = at.Add(86400e9)
		}
	}
}

// TestViewMemo checks that the memo returns one view per instant, counts
// hits and misses, and drops its views when the database takes a step.
func TestViewMemo(t *testing.T) {
	initial, h := guidegen.GenerateHistory(3, 10, 12, 5)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatal(err)
	}
	ig := NewGraph(d)
	steps := d.Steps()
	mid := steps[len(steps)/2]

	defer obs.SetEnabled(obs.SetEnabled(true))
	hits0, misses0 := mHits.Value(), mMisses.Value()
	v1 := ig.viewAt(mid)
	if ig.viewAt(mid) != v1 {
		t.Fatal("a repeated instant did not return the memoized view")
	}
	if mMisses.Value() != misses0+1 || mHits.Value() != hits0+1 {
		t.Errorf("first and repeated viewAt counted %d misses and %d hits, want 1 and 1",
			mMisses.Value()-misses0, mHits.Value()-hits0)
	}

	// A step at the last instant changes the view of it: the memo must not
	// serve the old version.
	last := steps[len(steps)-1].Add(86400e9)
	ig.viewAt(last)
	if err := d.Apply(last, mutationSet(d)); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if ig.viewAt(mid) == v1 {
		t.Fatal("the memo kept a view across a step")
	}
	if got, want := ig.OutAt(d.Root(), last), d.OutAt(d.Root(), last); !reflect.DeepEqual(got, want) {
		t.Fatalf("OutAt(root, %s) after the step = %v, want %v", last, got, want)
	}
}

// TestViewCacheEviction fills the memo past capacity and checks both that
// evictions are counted and that evicted instants still resolve correctly
// when rebuilt.
func TestViewCacheEviction(t *testing.T) {
	initial, h := guidegen.GenerateHistory(5, 8, viewCap+4, 4)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatal(err)
	}
	ig := NewGraph(d)
	defer obs.SetEnabled(obs.SetEnabled(true))
	evict0 := mEvictions.Value()
	steps := d.Steps()
	for _, s := range steps {
		ig.viewAt(s)
	}
	if len(steps) > viewCap && mEvictions.Value() == evict0 {
		t.Error("filling the memo past capacity counted no evictions")
	}
	// Re-query an evicted instant and cross-check against the database.
	s0 := steps[0]
	for _, n := range d.AllNodeIDs() {
		if got, want := ig.OutAt(n, s0), d.OutAt(n, s0); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %s at %s: got %v, want %v", n, s0, got, want)
		}
	}
}
