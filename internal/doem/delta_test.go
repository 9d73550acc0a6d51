package doem

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/change"
	"repro/internal/guidegen"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// scanMaxID is the whole-database pass MaxID used to be.
func scanMaxID(d *Database) oem.NodeID {
	var m oem.NodeID
	for _, id := range d.AllNodeIDs() {
		if id > m {
			m = id
		}
	}
	return m
}

// TestApplyCollectsByDelta replays adversarial histories through Apply and
// checks, after every step, that the step-boundary collection deleted
// exactly what a full walk deletes (the generator's reference model), with
// the same final values, and that MaxID equals the scan it replaced —
// also across Truncate and an Append/Decode round trip, after which the
// replay continues on the result.
func TestApplyCollectsByDelta(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		c := guidegen.NewChurn(seed, 60)
		d := New(c.DB)
		deleted := make(map[oem.NodeID]value.Value)
		at := timestamp.MustParse("1Jan97")
		for step := 0; step < 50; step++ {
			set := c.Step(1 + int(seed+int64(step))%9)
			if len(set) == 0 {
				continue
			}
			at = at.Add(3600e9)
			if err := d.Apply(at, set); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, set, err)
			}
			var got []oem.NodeID
			for n := range d.deletedValues {
				if _, ok := deleted[n]; !ok {
					got = append(got, n)
				}
			}
			slices.Sort(got)
			if len(got) != len(c.Dead) || (len(got) > 0 && !reflect.DeepEqual(got, c.Dead)) {
				t.Fatalf("seed %d step %d (%s): collected %v, full walk deletes %v", seed, step, set, got, c.Dead)
			}
			if !d.Current().Equal(c.DB) {
				t.Fatalf("seed %d step %d (%s): current snapshot diverged", seed, step, set)
			}
			for n, v := range c.DeadValues {
				deleted[n] = v
			}
			if !reflect.DeepEqual(d.deletedValues, deleted) {
				t.Fatalf("seed %d step %d: deletedValues %v, want %v", seed, step, d.deletedValues, deleted)
			}
			if got, want := d.MaxID(), scanMaxID(d); got != want {
				t.Fatalf("seed %d step %d: MaxID %s, scan %s", seed, step, got, want)
			}

			switch step % 17 {
			case 7: // continue on the truncated database
				if err := d.Current().Validate(); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				td, err := d.Truncate(at.Add(-2 * 3600e9))
				if err != nil {
					t.Fatalf("seed %d step %d: truncate: %v", seed, step, err)
				}
				if got, want := td.MaxID(), scanMaxID(td); got != want {
					t.Fatalf("seed %d step %d: MaxID after Truncate %s, scan %s", seed, step, got, want)
				}
				d, deleted = td, make(map[oem.NodeID]value.Value)
				for n, v := range td.deletedValues {
					deleted[n] = v
				}
			case 13: // continue on the decoded database
				ud, _, err := Decode(Append(nil, d))
				if err != nil {
					t.Fatal(err)
				}
				if got, want := ud.MaxID(), scanMaxID(ud); got != want {
					t.Fatalf("seed %d step %d: MaxID after Decode %s, scan %s", seed, step, got, want)
				}
				d = ud
			}
		}
	}
}

// growTo returns a database of about n nodes — a root with n/4 complex
// children of three leaves each — and the ids of the complex children.
func growTo(n int) (*Database, []oem.NodeID) {
	db := oem.New()
	var mids []oem.NodeID
	for db.NumNodes() < n {
		mid := db.CreateNode(value.Complex())
		if err := db.AddArc(db.Root(), "entry", mid); err != nil {
			panic(err)
		}
		mids = append(mids, mid)
		for _, l := range []string{"name", "price", "note"} {
			leaf := db.CreateNode(value.Str(l))
			if err := db.AddArc(mid, l, leaf); err != nil {
				panic(err)
			}
		}
	}
	return New(db), mids
}

// applyAllocs measures the allocations of one Apply of a fixed-shape
// 20-operation set — one remArc cutting an entry loose, three new entries
// of two leaves each, one update — on a database of about n nodes.
func applyAllocs(t *testing.T, n int) float64 {
	t.Helper()
	d, mids := growTo(n)
	at := timestamp.MustParse("1Jan97")
	next := d.MaxID()
	step := 0
	set := func() change.Set {
		victim, target := mids[step], mids[len(mids)-1-step]
		step++
		s := change.Set{change.RemArc{Parent: d.Root(), Label: "entry", Child: victim}}
		for i := 0; i < 3; i++ {
			mid, name, price := next+1, next+2, next+3
			next += 3
			s = append(s,
				change.CreNode{Node: mid, Value: value.Complex()},
				change.CreNode{Node: name, Value: value.Str("name")},
				change.CreNode{Node: price, Value: value.Str("price")},
				change.AddArc{Parent: d.Root(), Label: "entry", Child: mid},
				change.AddArc{Parent: mid, Label: "name", Child: name},
				change.AddArc{Parent: mid, Label: "price", Child: price})
		}
		s = append(s, change.UpdNode{Node: d.Out(target)[0].Child, Value: value.Str("renamed")})
		return s
	}
	apply := func() {
		at = at.Add(1e9)
		s := set()
		if len(s) != 20 {
			t.Fatalf("set has %d operations, want 20", len(s))
		}
		if err := d.Apply(at, s); err != nil {
			t.Fatal(err)
		}
	}
	apply() // the first collection of a database walks all of it
	return testing.AllocsPerRun(5, apply)
}

// TestApplyCostFollowsChangeSet is the cost-shape regression test: the
// same 20-operation step, one remArc included, allocates about the same on
// a 1k-node and on a 16k-node database, and after the first collection no
// step walks the whole snapshot.
func TestApplyCostFollowsChangeSet(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	before := mGCFullWalks.Value()
	small, large := applyAllocs(t, 1000), applyAllocs(t, 16000)
	t.Logf("allocs per Apply: %.0f at 1k nodes, %.0f at 16k nodes", small, large)
	if large >= 2*small {
		t.Fatalf("Apply allocations grow with the database: %.0f at 1k nodes, %.0f at 16k", small, large)
	}
	if walks := mGCFullWalks.Value() - before; walks != 2 {
		t.Fatalf("%d full walks; want one per database (its first collection)", walks)
	}
	d, _ := growTo(100)
	if a := testing.AllocsPerRun(100, func() { _ = d.MaxID() }); a != 0 {
		t.Fatalf("MaxID allocates %v per call", a)
	}
}

// extractBytes returns the fewest bytes one ExtractHistory of an
// unannotated DOEM database over an n-restaurant guide allocated, over a
// few calls, and checks the history is empty.
func extractBytes(t *testing.T, n int) uint64 {
	t.Helper()
	d := New(guidegen.Synthetic(1, n))
	best := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		h := d.ExtractHistory()
		runtime.ReadMemStats(&after)
		if len(h) != 0 {
			t.Fatalf("unannotated database has a %d-step history", len(h))
		}
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestExtractHistoryCostFollowsHistory: an empty history costs the same on
// a 1k-restaurant and on a 16k-restaurant database, so appending a fresh
// segment's checkpoint pays nothing for the nodes it has no annotation on.
func TestExtractHistoryCostFollowsHistory(t *testing.T) {
	small, large := extractBytes(t, 1000), extractBytes(t, 16000)
	t.Logf("bytes per ExtractHistory: %d at 1k restaurants, %d at 16k", small, large)
	if small != large {
		t.Fatalf("ExtractHistory of an empty history allocates with the database: %d bytes at 1k restaurants, %d at 16k", small, large)
	}
}
