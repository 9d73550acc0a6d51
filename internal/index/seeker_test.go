package index

import (
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/symbol"
	"repro/internal/timestamp"
)

// filterLabel returns the arcs of arcs labeled l, in order: the scan the
// label seeker stands in for.
func filterLabel(arcs []oem.Arc, l string) []oem.Arc {
	var out []oem.Arc
	for _, a := range arcs {
		if a.Label == l {
			out = append(out, a)
		}
	}
	return out
}

func sameArcs(a, b []oem.Arc) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkSeeker asserts the lorel.LabelSeeker contract on every node of d:
// OutLabeled and OutAllLabeled return exactly the arcs, in the order, that
// filtering Out and OutAll by label returns — for each label the node has
// ever carried, and for an interned label it never carried.
func checkSeeker(t *testing.T, ig *Graph, d *doem.Database, absent symbol.ID, ctx string) {
	t.Helper()
	for _, n := range d.AllNodeIDs() {
		syms := map[symbol.ID]string{absent: symbol.String(absent)}
		for _, a := range d.OutAll(n) {
			id, ok := symbol.Lookup(a.Label)
			if !ok {
				t.Fatalf("%s: arc label %q of node %s is not interned", ctx, a.Label, n)
			}
			syms[id] = a.Label
		}
		for id, l := range syms {
			if got, want := ig.OutLabeled(n, id), filterLabel(d.Out(n), l); !sameArcs(got, want) {
				t.Fatalf("%s: OutLabeled(%s, %q) = %v, want %v", ctx, n, l, got, want)
			}
			if got, want := ig.OutAllLabeled(n, id), filterLabel(d.OutAll(n), l); !sameArcs(got, want) {
				t.Fatalf("%s: OutAllLabeled(%s, %q) = %v, want %v", ctx, n, l, got, want)
			}
		}
	}
}

// TestLabelSeekerMatchesScan holds the symbol-keyed adjacency tables to the
// scan they replace, on freshly built tables and on tables Advance patched
// through histories with removals, orphaned subtrees and re-added arcs.
func TestLabelSeekerMatchesScan(t *testing.T) {
	absent, _ := symbol.Intern("index-seeker-absent-label")
	for seed := int64(1); seed <= 6; seed++ {
		c := guidegen.NewChurn(seed, 40)
		d := doem.New(c.DB)
		ig := NewGraph(d)
		checkSeeker(t, ig, d, absent, "initial")
		at := timestamp.MustParse("1Jan97")
		for step := 0; step < 20; step++ {
			set := c.Step(1 + int(seed+int64(step))%7)
			if len(set) == 0 {
				continue
			}
			at = at.Add(3600e9)
			if err := d.Apply(at, set); err != nil {
				t.Fatalf("seed %d step %d (%s): %v", seed, step, set, err)
			}
			ig.Advance(at, set)
			checkSeeker(t, ig, d, absent, set.String())
		}
		checkSeeker(t, NewGraph(d), d, absent, "rebuilt")
	}
}
