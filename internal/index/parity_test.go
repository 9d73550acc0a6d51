package index

import (
	"fmt"
	"math/rand"
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

// TestIndexedEvalParity is the tentpole's property test: over randomized
// histories, indexed and unindexed evaluation must return byte-identical
// results on well over 100 randomized queries.
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
				t.Fatalf("seed %d: unindexed %q: %v", seed, q, err)
			}
			got, err := idx.Query(q)
			if err != nil {
				t.Fatalf("seed %d: indexed %q: %v", seed, q, err)
			}
			if want.String() != got.String() {
				t.Errorf("seed %d: indexed result diverges for %q:\nunindexed:\n%s\nindexed:\n%s",
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
// mutates underneath the wrapper, queries must reflect the new generation
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
					t.Fatalf("unindexed %q: %v", q, err)
				}
				got, err := idx.Query(q)
				if err != nil {
					t.Fatalf("indexed %q: %v", q, err)
				}
				if want.String() != got.String() {
					t.Fatalf("explicit=%v: stale indexed result after step %d for %q:\nwant:\n%s\ngot:\n%s",
						explicit, i, q, want, got)
				}
			}
			at = at.Add(86400e9)
		}
	}
}

// TestSnapshotMemoization checks the LRU snapshot cache returns consistent
// materializations, invalidates on Apply, and reports hits and misses.
func TestSnapshotMemoization(t *testing.T) {
	initial, h := guidegen.GenerateHistory(3, 10, 12, 5)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatal(err)
	}
	ig := NewGraph(d)
	steps := d.Steps()
	mid := steps[len(steps)/2]

	defer obs.SetEnabled(obs.SetEnabled(true))
	hits0, misses0 := mCacheHits.Value(), mCacheMisses.Value()
	s1 := ig.SnapshotAt(mid)
	if !s1.Equal(d.SnapshotAt(mid)) {
		t.Fatal("memoized snapshot differs from direct materialization")
	}
	s2 := ig.SnapshotAt(mid)
	if s1 != s2 {
		t.Fatal("repeated SnapshotAt did not return the cached database")
	}
	if mCacheMisses.Value() == misses0 {
		t.Error("first SnapshotAt did not count a cache miss")
	}
	if mCacheHits.Value() == hits0 {
		t.Error("second SnapshotAt did not count a cache hit")
	}

	// Mutate: the cache must not serve the old generation.
	last := steps[len(steps)-1].Add(86400e9)
	if err := d.Apply(last, mutationSet(d)); err != nil {
		t.Fatalf("apply: %v", err)
	}
	s3 := ig.SnapshotAt(last)
	if !s3.Equal(d.SnapshotAt(last)) {
		t.Fatal("post-apply snapshot differs from direct materialization")
	}
}

// TestViewCacheEviction fills the view LRU past capacity and checks both
// that evictions are counted and that evicted instants still resolve
// correctly when rebuilt.
func TestViewCacheEviction(t *testing.T) {
	initial, h := guidegen.GenerateHistory(5, 8, 20, 4)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatal(err)
	}
	ig := NewGraph(d)
	ig.SetCacheSizes(2, 1)
	defer obs.SetEnabled(obs.SetEnabled(true))
	evict0 := mCacheEvictions.Value()
	steps := d.Steps()
	for _, s := range steps {
		ig.viewAt(s)
	}
	if len(steps) > 2 && mCacheEvictions.Value() == evict0 {
		t.Error("filling the view cache past capacity counted no evictions")
	}
	// Re-query an evicted instant and cross-check against the database.
	s0 := steps[0]
	for _, n := range d.AllNodeIDs() {
		var want []string
		for _, a := range d.OutAll(n) {
			if d.ArcLiveAt(a, s0) {
				want = append(want, a.String())
			}
		}
		got := ig.OutAt(n, s0)
		if len(got) != len(want) {
			t.Fatalf("node %s at %s: got %d arcs, want %d", n, s0, len(got), len(want))
		}
		for i, a := range got {
			if a.String() != want[i] {
				t.Fatalf("node %s at %s arc %d: got %s want %s", n, s0, i, a, want[i])
			}
		}
	}
}
