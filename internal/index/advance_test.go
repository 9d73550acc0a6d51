package index

import (
	"reflect"
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/obs"
	"repro/internal/timestamp"
)

// tablesDiff names the first derived structure in which the advanced tables
// differ from a fresh build of the same generation — slices in the same
// insertion order, maps with the same keys, equal statistics — or returns
// "" when they are structurally equal.
func tablesDiff(got, want *tables) string {
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"gen", got.gen, want.gen},
		{"nodes", got.nodes, want.nodes},
		{"outLabeled", got.outLabeled, want.outLabeled},
		{"outAllLabeled", got.outAllLabeled, want.outAllLabeled},
		{"updInfos", got.updInfos, want.updInfos},
		{"labelStats", got.labelStats, want.labelStats},
		{"arcTotal", got.arcTotal, want.arcTotal},
		{"annotTotal", got.annotTotal, want.annotTotal},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			return f.name
		}
	}
	return ""
}

// checkAdvanced asserts that ig's tables were advanced to d's generation
// (not dropped) and equal a fresh build. It counts as a read of the tables,
// so the next Advance keeps them up.
func checkAdvanced(t *testing.T, ig *Graph, d *doem.Database, ctx string) {
	t.Helper()
	ig.mu.RLock()
	tab := ig.tab
	ig.mu.RUnlock()
	if tab == nil {
		t.Fatalf("%s: Advance dropped the tables", ctx)
	}
	if f := tablesDiff(tab, buildTables(d, d.Version(), ig.viewCap, ig.snapCap)); f != "" {
		t.Fatalf("%s: advanced tables differ from a fresh build in %s", ctx, f)
	}
	if ig.tables() != tab {
		t.Fatalf("%s: a read after Advance rebuilt the tables", ctx)
	}
}

// TestAdvanceEqualsRebuild replays adversarial histories (creates, updates,
// shared children and cycles, removals that orphan subtrees, re-adds after
// removal) and after every step compares the tables Advance patched with
// the tables buildTables produces from scratch.
func TestAdvanceEqualsRebuild(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		c := guidegen.NewChurn(seed, 60)
		d := doem.New(c.DB)
		ig := NewGraph(d)
		ig.tables()
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
			ig.Advance(at, set)
			checkAdvanced(t, ig, d, set.String())
		}
	}
}

// TestAdvanceKeepsEarlierViews checks the cache rule: a step at t drops the
// cached views and snapshots of instants at or after t and keeps the
// earlier ones, which history being append-only cannot change.
func TestAdvanceKeepsEarlierViews(t *testing.T) {
	initial, h := guidegen.GenerateHistory(4, 10, 6, 5)
	d, err := doem.FromHistory(initial, h[:len(h)-1])
	if err != nil {
		t.Fatal(err)
	}
	ig := NewGraph(d)
	last := h[len(h)-1]
	before, after := last.At.Add(-3600e9), last.At.Add(3600e9)
	for _, at := range []timestamp.Time{before, last.At, after, timestamp.PosInf} {
		ig.OutAt(d.Root(), at)
		ig.SnapshotAt(at)
	}
	keptView, keptSnap := ig.viewAt(before), ig.SnapshotAt(before)

	if err := d.Apply(last.At, last.Ops); err != nil {
		t.Fatal(err)
	}
	ig.Advance(last.At, last.Ops)
	tab := ig.tables()
	if n := tab.views.len(); n != 1 {
		t.Fatalf("%d views survive the step, want only the one before it", n)
	}
	if ig.viewAt(before) != keptView || ig.SnapshotAt(before) != keptSnap {
		t.Fatal("the view and snapshot before the step were rebuilt")
	}
	for _, at := range []timestamp.Time{before, last.At, after, timestamp.PosInf} {
		if !d.SnapshotAt(at).Equal(ig.SnapshotAt(at)) {
			t.Fatalf("SnapshotAt(%s) is stale after the step", at)
		}
		if got, want := ig.OutAt(d.Root(), at), d.OutAt(d.Root(), at); !reflect.DeepEqual(got, want) {
			t.Fatalf("OutAt(root, %s) is stale after the step", at)
		}
	}
}

// TestAdvanceCounters is the cost-shape check for the index: a read after
// Apply+Advance builds nothing, and anything but a one-generation gap falls
// back to the full build.
func TestAdvanceCounters(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	e := guidegen.NewEvolver(21, 20)
	d := doem.New(e.DB)
	ig := NewGraph(d)
	ig.NodeCount() // first build
	at := timestamp.MustParse("1Jan97")
	apply := func() change.Set {
		for {
			if set := e.Step(6); len(set) > 0 {
				at = at.Add(3600e9)
				if err := d.Apply(at, set); err != nil {
					t.Fatal(err)
				}
				return set
			}
		}
	}

	builds, advances := mBuilds.Value(), mAdvances.Value()
	ig.Advance(at, apply())
	ig.NodeCount()
	ig.LabelStats("restaurant")
	if b, a := mBuilds.Value()-builds, mAdvances.Value()-advances; b != 0 || a != 1 {
		t.Fatalf("read after Advance: %d builds, %d advances; want 0 and 1", b, a)
	}

	// Two steps, one Advance: the gap is not one generation, so the tables
	// are dropped and the next read rebuilds — the Version() safety net.
	apply()
	ig.Advance(at, apply())
	ig.NodeCount()
	if b, a := mBuilds.Value()-builds, mAdvances.Value()-advances; b != 1 || a != 1 {
		t.Fatalf("read after a missed step: %d builds, %d advances; want 1 and 1", b, a)
	}
	checkAdvanced(t, ig, d, "rebuild after a missed step")

	// No Advance at all: the reader finds the tables behind and rebuilds.
	apply()
	ig.NodeCount()
	if b := mBuilds.Value() - builds; b != 2 {
		t.Fatalf("read after an unannounced step: %d builds, want 2", b)
	}

	// Tables nobody read since the previous step are not kept up: the
	// second of two unread steps drops them, and memory with them.
	ig.Advance(at, apply())
	ig.Advance(at, apply())
	if b, a := mBuilds.Value()-builds, mAdvances.Value()-advances; b != 2 || a != 2 {
		t.Fatalf("two unread steps: %d builds, %d advances; want 2 and 2", b, a)
	}
	ig.mu.RLock()
	dropped := ig.tab == nil
	ig.mu.RUnlock()
	if !dropped {
		t.Fatal("tables unread across two steps were kept")
	}
}
