package index

import (
	"testing"
	"time"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/timestamp"
)

// FuzzIndexSnapshotParity drives randomized histories and instants through
// the indexed accessors and asserts they agree, element for element, with
// the linear-scan implementations in internal/doem — the same invariant
// the property test checks, explored adversarially — and that index tables
// advanced step by step equal tables built from scratch.
func FuzzIndexSnapshotParity(f *testing.F) {
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
		// The graph follows the history step by step through Advance, so the
		// accessors below read patched tables, not freshly built ones.
		d := doem.New(initial)
		ig := NewGraph(d)
		ig.tables()
		for _, step := range h {
			if err := d.Apply(step.At, step.Ops); err != nil {
				t.Skip() // generator produced an unusable history for this input
			}
			ig.Advance(step.At, step.Ops)
			checkAdvanced(t, ig, d, "fuzzed history")
		}

		// An instant anywhere around the history range, including exact
		// step timestamps when tOff lands on a day boundary.
		span := int64(nsteps+2) * 86400
		off := tOff % span
		at := timestamp.MustParse("1Jan97").Add(time.Duration(off) * time.Second)

		for _, n := range d.AllNodeIDs() {
			if want, got := d.ValueAt(n, at), ig.ValueAt(n, at); !want.Equal(got) {
				t.Fatalf("ValueAt(%s, %s): indexed %s, unindexed %s", n, at, got, want)
			}
			var wantArcs []string
			for _, a := range d.OutAll(n) {
				if want, got := d.ArcLiveAt(a, at), ig.ArcLiveAt(a, at); want != got {
					t.Fatalf("ArcLiveAt(%s, %s): indexed %v, unindexed %v", a, at, got, want)
				}
				if d.ArcLiveAt(a, at) {
					wantArcs = append(wantArcs, a.String())
				}
			}
			gotArcs := ig.OutAt(n, at)
			if len(gotArcs) != len(wantArcs) {
				t.Fatalf("OutAt(%s, %s): indexed %d arcs, unindexed %d", n, at, len(gotArcs), len(wantArcs))
			}
			for i, a := range gotArcs {
				if a.String() != wantArcs[i] {
					t.Fatalf("OutAt(%s, %s)[%d]: indexed %s, unindexed %s", n, at, i, a, wantArcs[i])
				}
			}
		}
		if !d.SnapshotAt(at).Equal(ig.SnapshotAt(at)) {
			t.Fatalf("SnapshotAt(%s): memoized snapshot differs from direct materialization", at)
		}
	})
}
