package segment

import (
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/wal"
)

// noSync keeps the differential tests off fsync; durability is not what
// they check.
var noSync = &wal.Options{Sync: wal.SyncNever}

// checkStats asserts that the registry counts the store advanced step by
// step equal a recount from scratch, and that the current-snapshot counts
// are the active segment's.
func checkStats(t *testing.T, st *Store, ctx string) {
	t.Helper()
	g := st.Graph()
	want := registryStats(st)
	for l, w := range want {
		cur := st.active.LabelStats(l)
		w.Parents, w.Arcs, w.RootOut = cur.Parents, cur.Arcs, cur.RootOut
		if got := g.LabelStats(l); got != w {
			t.Fatalf("%s: label %q advanced to %+v, recount %+v", ctx, l, got, w)
		}
	}
	if got := len(st.statsC.labels); got != len(want) {
		t.Fatalf("%s: advanced registry counts carry %d labels, recount %d", ctx, got, len(want))
	}
	if got, want := g.ArcCount(), st.active.Current().NumArcs(); got != want {
		t.Fatalf("%s: arc count %d, current snapshot has %d", ctx, got, want)
	}
}

// scanStoreMaxID is the pass Store.MaxID replaces: every id the store knows
// of, in the active segment or sealed away.
func scanStoreMaxID(st *Store) oem.NodeID {
	var m oem.NodeID
	for _, id := range st.active.AllNodeIDs() {
		if id > m {
			m = id
		}
	}
	for id := range st.dead {
		if id > m {
			m = id
		}
	}
	for id := range st.cre {
		if id > m {
			m = id
		}
	}
	return m
}

// TestStatsAdvanceEqualsRecount replays adversarial histories through
// Store.Apply with seals, a Truncate and a reopen from disk interleaved, and
// after every step compares the advanced statistics with registryStats
// and MaxID with the scan it replaces. Only first use, Truncate and reopen
// may recount.
func TestStatsAdvanceEqualsRecount(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	for seed := int64(1); seed <= 12; seed++ {
		dir := t.TempDir()
		c := guidegen.NewChurn(seed, 60)
		st, err := Create(dir, doem.New(c.DB), noSync, &Policy{SealAnnotations: 40})
		if err != nil {
			t.Fatal(err)
		}
		st.Graph().LabelStats("")
		rebuilds, allowed := mStatsRebuilds.Value(), int64(0)
		at := timestamp.MustParse("1Jan97")
		for step := 0; step < 60; step++ {
			set := c.Step(1 + int(seed+int64(step))%9)
			if len(set) == 0 {
				continue
			}
			at = at.Add(3600e9)
			if err := st.Apply(at, set); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, set, err)
			}
			checkStats(t, st, set.String())
			if got, want := st.active.MaxID(), scanDOEMMaxID(st.active); got != want {
				t.Fatalf("seed %d step %d: active MaxID %s, scan %s", seed, step, got, want)
			}
			if got, want := st.MaxID(), scanStoreMaxID(st); got != want {
				t.Fatalf("seed %d step %d: store MaxID %s, scan %s", seed, step, got, want)
			}
			switch {
			case step%20 == 9:
				if err := st.Seal(); err != nil {
					t.Fatal(err)
				}
				checkStats(t, st, "after Seal")
			case step == 25 && st.active.Current().Validate() == nil:
				if err := st.Truncate(st.LastSeal()); err != nil {
					t.Fatal(err)
				}
				allowed++
				checkStats(t, st, "after Truncate")
			case step == 45:
				max := st.MaxID()
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				if st, err = Open(dir, noSync, &Policy{SealAnnotations: 40}); err != nil {
					t.Fatal(err)
				}
				allowed++
				checkStats(t, st, "after reopen")
				if st.MaxID() != max {
					t.Fatalf("seed %d: MaxID %s before reopen, %s after", seed, max, st.MaxID())
				}
			}
		}
		if st.Segments() == 0 {
			t.Fatalf("seed %d: the policy never sealed", seed)
		}
		if n := mStatsRebuilds.Value() - rebuilds; n != allowed {
			t.Fatalf("seed %d: %d statistics recounts, want %d (Truncate and reopen only)", seed, n, allowed)
		}
		st.Close()
	}
}

func scanDOEMMaxID(d *doem.Database) oem.NodeID {
	ids := d.AllNodeIDs()
	if len(ids) == 0 {
		return 0
	}
	return ids[len(ids)-1]
}

// TestPrepareAfterApplyRecountsNothing is the cost-shape check for the
// planner statistics: a query prepared right after Store.Apply costs its
// plan from advanced statistics, and the O(1) ones allocate nothing.
func TestPrepareAfterApplyRecountsNothing(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	e := guidegen.NewEvolver(5, 200)
	st, err := Create(t.TempDir(), doem.New(e.DB), noSync, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := lorel.NewEngine()
	eng.Register("guide", st.Graph())
	const q = `select N from guide.restaurant R, R.name N where R.price < 20`
	if _, err := eng.PlanDescription(q); err != nil {
		t.Fatal(err)
	}
	rebuilds := mStatsRebuilds.Value()
	at := timestamp.MustParse("1Jan97")
	for i := 0; i < 5; i++ {
		set := e.Step(20)
		if len(set) == 0 {
			continue
		}
		at = at.Add(3600e9)
		if err := st.Apply(at, set); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if n := mStatsRebuilds.Value() - rebuilds; n != 0 {
		t.Fatalf("%d statistics recounts across 5 writes, want 0", n)
	}
	g := st.Graph()
	if a := testing.AllocsPerRun(100, func() { _ = g.NodeCount(); _ = st.MaxID() }); a != 0 {
		t.Fatalf("NodeCount/MaxID allocate %v per call", a)
	}
}
