package doem

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/change"
	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/plan"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// pathOracle is f_N and f_A of a history replayed step by step on a plain
// oem.Database, apart from the storage of the Database it checks: each
// node's cre time and (t, old, new) per upd, each arc's add/rem sequence.
type pathOracle struct {
	cur  *oem.Database
	cre  map[oem.NodeID]timestamp.Time
	upds map[oem.NodeID][]UpdInfo
	arcs map[oem.Arc][]ArcAnnot
	vals map[oem.NodeID]value.Value // final value of every node ever present
}

// newOracle starts from a collected copy of o with no annotations, and
// replays h on it.
func newOracle(t *testing.T, o *oem.Database, h change.History) *pathOracle {
	t.Helper()
	po := &pathOracle{
		cur:  o.Clone(),
		cre:  map[oem.NodeID]timestamp.Time{},
		upds: map[oem.NodeID][]UpdInfo{},
		arcs: map[oem.Arc][]ArcAnnot{},
		vals: map[oem.NodeID]value.Value{},
	}
	po.cur.GarbageCollect()
	for _, n := range po.cur.Nodes() {
		po.vals[n] = po.cur.MustValue(n)
	}
	for _, step := range h {
		po.apply(t, step.At, step.Ops)
	}
	return po
}

func (po *pathOracle) apply(t *testing.T, at timestamp.Time, set change.Set) {
	t.Helper()
	old := map[oem.NodeID]value.Value{}
	for _, op := range set {
		if u, ok := op.(change.UpdNode); ok {
			old[u.Node] = po.cur.MustValue(u.Node)
		}
	}
	for _, op := range set.Canonical() {
		if err := op.Apply(po.cur); err != nil {
			t.Fatalf("oracle: %s: %v", op, err)
		}
		switch o := op.(type) {
		case change.CreNode:
			po.cre[o.Node], po.vals[o.Node] = at, o.Value
		case change.UpdNode:
			po.upds[o.Node] = append(po.upds[o.Node], UpdInfo{At: at, Old: old[o.Node], New: o.Value})
			po.vals[o.Node] = o.Value
		case change.AddArc:
			a := oem.Arc{Parent: o.Parent, Label: o.Label, Child: o.Child}
			po.arcs[a] = append(po.arcs[a], ArcAnnot{Kind: AnnotAdd, At: at})
		case change.RemArc:
			a := oem.Arc{Parent: o.Parent, Label: o.Label, Child: o.Child}
			po.arcs[a] = append(po.arcs[a], ArcAnnot{Kind: AnnotRem, At: at})
		}
	}
	po.cur.GarbageCollect()
}

// valueAt: the final value unless some upd is after t, in which case the
// old value of the earliest such.
func (po *pathOracle) valueAt(n oem.NodeID, t timestamp.Time) value.Value {
	for _, u := range po.upds[n] {
		if u.At.After(t) {
			return u.Old
		}
	}
	return po.vals[n]
}

// arcLiveAt replays a's annotations up to t from its O_0 state.
func (po *pathOracle) arcLiveAt(a oem.Arc, t timestamp.Time) bool {
	anns := po.arcs[a]
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

// checkPaths recounts the planner statistics of d by scanning Out and
// OutAll, holds its annotations to the oracle's replay of the same history,
// and fails on the first that differs.
func checkPaths(t *testing.T, d *Database, po *pathOracle, ctx string) {
	t.Helper()
	labels := make(map[string]plan.LabelCard)
	arcs, annotated := 0, 0
	ids := d.AllNodeIDs()
	if len(ids) != len(po.vals) {
		t.Fatalf("%s: %d nodes ever, oracle %d", ctx, len(ids), len(po.vals))
	}
	for _, n := range ids {
		seen := map[string]bool{}
		for _, a := range d.OutAll(n) {
			if seen[a.Label] {
				continue
			}
			seen[a.Label] = true
			all, cur := scanLabel(d.OutAll(n), a.Label), scanLabel(d.Out(n), a.Label)
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
		arcs += len(d.Out(n))
		for _, a := range d.OutAll(n) {
			if got, want := d.ArcAnnots(a), po.arcs[a]; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: ArcAnnots(%s) = %v, oracle %v", ctx, a, got, want)
			}
			if len(po.arcs[a]) > 0 {
				annotated++
			}
		}
		if v, _ := d.Value(n); !v.Equal(po.vals[n]) {
			t.Fatalf("%s: Value(%s) = %s, oracle %s", ctx, n, v, po.vals[n])
		}
		gotCre, gotOK := d.CreTime(n)
		if wantCre, wantOK := po.cre[n]; gotOK != wantOK || !gotCre.Equal(wantCre) {
			t.Fatalf("%s: CreTime(%s) = %s %v, oracle %s %v", ctx, n, gotCre, gotOK, wantCre, wantOK)
		}
		if got, want := d.UpdTriples(n), po.upds[n]; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: UpdTriples(%s) = %v, oracle %v", ctx, n, got, want)
		}
	}
	if annotated != len(po.arcs) {
		t.Fatalf("%s: %d annotated arcs in OutAll, oracle %d", ctx, annotated, len(po.arcs))
	}
	annots := len(po.cre)
	for _, ups := range po.upds {
		annots += len(ups)
	}
	for _, anns := range po.arcs {
		annots += len(anns)
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

// countCases records which of the count upkeep's hard cases a replay met:
// Commit adjusts a label's parent counts only when no other arc of the
// parent carries the label, which these are the steps to get wrong.
type countCases struct {
	collected bool // a collected node held two arcs of one label and one of another
	lastOf    bool // a parent lost its last arc of a label but kept others
	reAdd     bool // an arc was added again after a removal
}

func (c countCases) all() bool { return c.collected && c.lastOf && c.reAdd }

// observe classifies step set, just applied to d; prev is d's current
// snapshot before the step.
func (c *countCases) observe(prev *oem.Database, d *Database, set change.Set) {
	for _, n := range prev.Nodes() {
		if d.Current().Has(n) {
			continue
		}
		per := map[string]int{}
		for _, a := range prev.Out(n) {
			per[a.Label]++
		}
		for _, k := range per {
			c.collected = c.collected || (k >= 2 && len(per) >= 2)
		}
	}
	for _, op := range set {
		switch o := op.(type) {
		case change.AddArc:
			anns := d.ArcAnnots(oem.Arc{Parent: o.Parent, Label: o.Label, Child: o.Child})
			c.reAdd = c.reAdd || (len(anns) >= 2 && anns[len(anns)-2].Kind == AnnotRem)
		case change.RemArc:
			out := d.Out(o.Parent)
			c.lastOf = c.lastOf || (d.Current().Has(o.Parent) && len(out) > 0 && scanLabel(out, o.Label) == nil)
		}
	}
}

// TestAccessPathsFollowCommit replays adversarial histories (creates,
// updates, shared children and cycles, removals that orphan subtrees,
// re-adds after removal) and after every step holds the statistics Commit
// kept up to a scan. Along the way it continues on a Clone, on a
// Append/Decode round trip and on a Truncate, whose statistics are counted
// from scratch and must then keep up too. The histories must meet every
// countCases case.
func TestAccessPathsFollowCommit(t *testing.T) {
	var cases countCases
	for seed := int64(1); seed <= 25; seed++ {
		c := guidegen.NewChurn(seed, 60)
		d := New(c.DB)
		initial, applied := c.DB.Clone(), change.History(nil)
		po := newOracle(t, initial, nil)
		checkPaths(t, d, po, "New")
		at := timestamp.MustParse("1Jan97")
		for step := 0; step < 50; step++ {
			set := c.Step(1 + int(seed+int64(step))%9)
			if len(set) == 0 {
				continue
			}
			at = at.Add(3600e9)
			prev := d.Current().Clone()
			if err := d.Apply(at, set); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, set, err)
			}
			cases.observe(prev, d, set)
			applied = append(applied, change.Step{At: at, Ops: set})
			po.apply(t, at, set)
			checkPaths(t, d, po, set.String())
			switch step % 17 {
			case 3:
				d = d.Clone()
				checkPaths(t, d, po, "Clone")
			case 7: // the instants TestApplyCollectsByDelta truncates at
				if d.Current().Validate() != nil {
					break // see TestApplyCollectsByDelta
				}
				cut := at.Add(-2 * 3600e9)
				td, err := d.Truncate(cut)
				if err != nil {
					t.Fatalf("seed %d step %d: truncate: %v", seed, step, err)
				}
				d = td
				k := sort.Search(len(applied), func(i int) bool { return applied[i].At.After(cut) })
				initial, applied = newOracle(t, initial, applied[:k]).cur, applied[k:]
				po = newOracle(t, initial, applied)
				checkPaths(t, d, po, "Truncate")
			case 13:
				var err error
				if d, _, err = Decode(Append(nil, d)); err != nil {
					t.Fatal(err)
				}
				checkPaths(t, d, po, "Decode")
			}
		}
	}
	if !cases.all() {
		t.Errorf("the histories miss a count upkeep case: %+v", cases)
	}
}

// checkTimeTravel holds ValueAt and ArcLiveAt, which binary-search the
// time-sorted annotations, to the oracle's linear scans at instant at.
func checkTimeTravel(t *testing.T, d *Database, po *pathOracle, at timestamp.Time) {
	t.Helper()
	for _, n := range d.AllNodeIDs() {
		if got, want := d.ValueAt(n, at), po.valueAt(n, at); !got.Equal(want) {
			t.Fatalf("ValueAt(%s, %s) = %s, oracle %s", n, at, got, want)
		}
		for _, a := range d.OutAll(n) {
			if got, want := d.ArcLiveAt(a, at), po.arcLiveAt(a, at); got != want {
				t.Fatalf("ArcLiveAt(%s, %s) = %v, oracle %v", a, at, got, want)
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
		po := newOracle(t, initial, h)
		steps := d.Steps()
		checkTimeTravel(t, d, po, steps[0].Add(-86400e9))
		checkTimeTravel(t, d, po, steps[len(steps)-1].Add(86400e9))
		for _, s := range steps {
			for _, at := range []timestamp.Time{s.Add(-1e9), s, s.Add(1e9)} {
				checkTimeTravel(t, d, po, at)
			}
		}
	}
}

// accessPathsSeeds is FuzzAccessPaths' seed corpus.
var accessPathsSeeds = []struct {
	seed       int64
	steps, ops uint8
	tOff       int64
}{
	{1, 10, 5, 3600},
	{7, 3, 2, -60},
	{42, 30, 7, 86400 * 3},
	{5, 8, 7, 7200}, // collects a node holding two arcs of one label and one of another
}

// replayAccessPaths is FuzzAccessPaths' body: it reports the countCases
// the history met, and ok false when the generator produced a history
// Apply refuses.
func replayAccessPaths(t *testing.T, seed int64, steps, ops uint8, tOff int64) (cases countCases, ok bool) {
	nsteps := int(steps%24) + 1
	nops := int(ops%8) + 1
	initial, h := guidegen.GenerateHistory(seed, 6, nsteps, nops)
	if seed%2 != 0 {
		// Odd seeds take the adversarial graph: cycles, shared
		// children, orphaned subtrees, re-added arcs.
		initial, h = guidegen.GenerateChurn(seed, 24, nsteps, nops)
	}
	d := New(initial)
	po := newOracle(t, initial, nil)
	for _, step := range h {
		prev := d.Current().Clone()
		if err := d.Apply(step.At, step.Ops); err != nil {
			return cases, false
		}
		cases.observe(prev, d, step.Ops)
		po.apply(t, step.At, step.Ops)
		checkPaths(t, d, po, "fuzzed history")
	}
	// Exact step timestamps when tOff lands on a day boundary.
	span := int64(nsteps+2) * 86400
	checkTimeTravel(t, d, po, timestamp.MustParse("1Jan97").Add(time.Duration(tOff%span)*time.Second))
	return cases, true
}

// FuzzAccessPaths drives randomized histories step by step and holds the
// statistics Commit keeps up, and the time-travel accessors at an instant
// anywhere around the history, to the scans and the replay oracle.
func FuzzAccessPaths(f *testing.F) {
	for _, s := range accessPathsSeeds {
		f.Add(s.seed, s.steps, s.ops, s.tOff)
	}
	f.Fuzz(func(t *testing.T, seed int64, steps, ops uint8, tOff int64) {
		if _, ok := replayAccessPaths(t, seed, steps, ops, tOff); !ok {
			t.Skip() // generator produced an unusable history for this input
		}
	})
}

// TestAccessPathsSeedsMeetCountCases: FuzzAccessPaths' seed corpus, which
// every go test run replays, meets every countCases case.
func TestAccessPathsSeedsMeetCountCases(t *testing.T) {
	var cases countCases
	for _, s := range accessPathsSeeds {
		got, ok := replayAccessPaths(t, s.seed, s.steps, s.ops, s.tOff)
		if !ok {
			t.Fatalf("seed %+v: the generator's history is refused", s)
		}
		cases.collected = cases.collected || got.collected
		cases.lastOf = cases.lastOf || got.lastOf
		cases.reAdd = cases.reAdd || got.reAdd
	}
	if !cases.all() {
		t.Errorf("the seed corpus misses a count upkeep case: %+v", cases)
	}
}
