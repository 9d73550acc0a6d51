package doem

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/plan"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// The linear scans below are what the access paths replace; the tests hold
// the paths to them.

// scanUpdTriples derives n's upd triples from its node annotations.
func scanUpdTriples(d *Database, n oem.NodeID) []UpdInfo {
	var ups []UpdInfo
	for _, a := range d.nodeAnn[n] {
		if a.Kind == AnnotUpd {
			ups = append(ups, UpdInfo{At: a.At, Old: a.Old})
		}
	}
	for i := range ups {
		if i+1 < len(ups) {
			ups[i].New = ups[i+1].Old
		} else if v, ok := d.Value(n); ok {
			ups[i].New = v
		}
	}
	return ups
}

// scanValueAt: the current value unless some upd annotation is after t, in
// which case the old value of the earliest such.
func scanValueAt(d *Database, n oem.NodeID, t timestamp.Time) value.Value {
	cur, _ := d.Value(n)
	for _, a := range d.nodeAnn[n] {
		if a.Kind == AnnotUpd && a.At.After(t) {
			return a.Old
		}
	}
	return cur
}

// scanArcLiveAt replays a's annotations up to t from its O_0 state.
func scanArcLiveAt(d *Database, a oem.Arc, t timestamp.Time) bool {
	anns := d.arcAnn[a]
	live := len(anns) == 0 || anns[0].Kind == AnnotRem
	for _, ann := range anns {
		if ann.At.After(t) {
			break
		}
		live = ann.Kind == AnnotAdd
	}
	return live
}

// scanLabel returns the arcs of arcs labeled l, in order.
func scanLabel(arcs []oem.Arc, l string) []oem.Arc {
	var out []oem.Arc
	for _, a := range arcs {
		if a.Label == l {
			out = append(out, a)
		}
	}
	return out
}

// checkPaths recounts every access path of d by scanning Out, OutAll and
// the annotations, and fails on the first that differs.
func checkPaths(t *testing.T, d *Database, ctx string) {
	t.Helper()
	labels := make(map[string]plan.LabelCard)
	arcs, annots := 0, 0
	absent, _ := symbol.Intern("doem-paths-absent-label")
	ids := d.AllNodeIDs()
	for _, n := range ids {
		seen := map[string]bool{}
		for _, a := range d.OutAll(n) {
			if seen[a.Label] {
				continue
			}
			seen[a.Label] = true
			sym, _ := symbol.Lookup(a.Label)
			all, cur := scanLabel(d.OutAll(n), a.Label), scanLabel(d.Out(n), a.Label)
			if got := d.OutAllLabeled(n, sym); !reflect.DeepEqual(got, all) {
				t.Fatalf("%s: OutAllLabeled(%s, %q) = %v, scan %v", ctx, n, a.Label, got, all)
			}
			if got := d.OutLabeled(n, sym); len(got) != len(cur) || (len(cur) > 0 && !reflect.DeepEqual(got, cur)) {
				t.Fatalf("%s: OutLabeled(%s, %q) = %v, scan %v", ctx, n, a.Label, got, cur)
			}
			lc := labels[a.Label]
			lc.AllParents++
			lc.AllArcs += len(all)
			if len(cur) > 0 {
				lc.Parents++
			}
			lc.Arcs += len(cur)
			if n == d.Root() {
				lc.AllRootOut += len(all)
				lc.RootOut += len(cur)
			}
			labels[a.Label] = lc
		}
		if d.OutLabeled(n, absent) != nil || d.OutAllLabeled(n, absent) != nil {
			t.Fatalf("%s: node %s has arcs under a label it never carried", ctx, n)
		}
		arcs += len(d.Out(n))
		annots += len(d.NodeAnnots(n))
		for _, a := range d.OutAll(n) {
			annots += len(d.ArcAnnots(a))
		}
		if got, want := d.UpdTriples(n), scanUpdTriples(d, n); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: UpdTriples(%s) = %v, scan %v", ctx, n, got, want)
		}
	}
	for l, want := range labels {
		if got := d.LabelStats(l); got != want {
			t.Fatalf("%s: LabelStats(%q) = %+v, scan %+v", ctx, l, got, want)
		}
	}
	if len(d.labels) != len(labels) {
		t.Fatalf("%s: statistics for %d labels, scan finds %d", ctx, len(d.labels), len(labels))
	}
	if d.NodeCount() != len(ids) || d.ArcCount() != arcs || d.AnnotCount() != annots {
		t.Fatalf("%s: counts nodes=%d arcs=%d annots=%d, scan %d %d %d",
			ctx, d.NodeCount(), d.ArcCount(), d.AnnotCount(), len(ids), arcs, annots)
	}
}

// TestAccessPathsFollowCommit replays adversarial histories (creates,
// updates, shared children and cycles, removals that orphan subtrees,
// re-adds after removal) and after every step holds the paths Commit kept
// up to a scan. Along the way it continues on a Clone, on a
// Append/Decode round trip and on a Truncate, whose paths are built
// from scratch and must then keep up too.
func TestAccessPathsFollowCommit(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		c := guidegen.NewChurn(seed, 60)
		d := New(c.DB)
		checkPaths(t, d, "New")
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
			checkPaths(t, d, set.String())
			switch step % 17 {
			case 3:
				d = d.Clone()
				checkPaths(t, d, "Clone")
			case 7: // the instants TestApplyCollectsByDelta truncates at
				if d.Current().Validate() != nil {
					break // see TestApplyCollectsByDelta
				}
				td, err := d.Truncate(at.Add(-2 * 3600e9))
				if err != nil {
					t.Fatalf("seed %d step %d: truncate: %v", seed, step, err)
				}
				d = td
				checkPaths(t, d, "Truncate")
			case 13:
				data, err := Append(nil, d)
				if err != nil {
					t.Fatal(err)
				}
				if d, _, err = Decode(data); err != nil {
					t.Fatal(err)
				}
				checkPaths(t, d, "Decode")
			}
		}
	}
}

// checkTimeTravel holds ValueAt and ArcLiveAt, which binary-search the
// time-sorted annotations, to the linear scans at instant at.
func checkTimeTravel(t *testing.T, d *Database, at timestamp.Time) {
	t.Helper()
	for _, n := range d.AllNodeIDs() {
		if got, want := d.ValueAt(n, at), scanValueAt(d, n, at); !got.Equal(want) {
			t.Fatalf("ValueAt(%s, %s) = %s, scan %s", n, at, got, want)
		}
		for _, a := range d.OutAll(n) {
			if got, want := d.ArcLiveAt(a, at), scanArcLiveAt(d, a, at); got != want {
				t.Fatalf("ArcLiveAt(%s, %s) = %v, scan %v", a, at, got, want)
			}
		}
	}
}

// TestTimeTravelMatchesScan checks the binary searches at every step time
// (the inclusive boundary), one second either side, and before and after
// the whole history.
func TestTimeTravelMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		initial, h := guidegen.GenerateChurn(seed, 30, 20, 6)
		d, err := FromHistory(initial, h)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		steps := d.Steps()
		checkTimeTravel(t, d, steps[0].Add(-86400e9))
		checkTimeTravel(t, d, steps[len(steps)-1].Add(86400e9))
		for _, s := range steps {
			for _, at := range []timestamp.Time{s.Add(-1e9), s, s.Add(1e9)} {
				checkTimeTravel(t, d, at)
			}
		}
	}
}

// FuzzAccessPaths drives randomized histories step by step and holds the
// access paths Commit keeps up, and the time-travel accessors at an instant
// anywhere around the history, to the linear scans.
func FuzzAccessPaths(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(5), int64(3600))
	f.Add(int64(7), uint8(3), uint8(2), int64(-60))
	f.Add(int64(42), uint8(30), uint8(7), int64(86400*3))
	f.Fuzz(func(t *testing.T, seed int64, steps, ops uint8, tOff int64) {
		nsteps := int(steps%24) + 1
		nops := int(ops%8) + 1
		initial, h := guidegen.GenerateHistory(seed, 6, nsteps, nops)
		if seed%2 != 0 {
			// Odd seeds take the adversarial graph: cycles, shared
			// children, orphaned subtrees, re-added arcs.
			initial, h = guidegen.GenerateChurn(seed, 24, nsteps, nops)
		}
		d := New(initial)
		for _, step := range h {
			if err := d.Apply(step.At, step.Ops); err != nil {
				t.Skip() // generator produced an unusable history for this input
			}
			checkPaths(t, d, "fuzzed history")
		}
		// Exact step timestamps when tOff lands on a day boundary.
		span := int64(nsteps+2) * 86400
		checkTimeTravel(t, d, timestamp.MustParse("1Jan97").Add(time.Duration(tOff%span)*time.Second))
	})
}
