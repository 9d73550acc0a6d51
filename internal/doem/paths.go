package doem

import (
	"repro/internal/oem"
	"repro/internal/plan"
)

// The planner's statistics, kept on the annotated graph itself: per-label
// cardinalities of the current and full arc relations. New and Clone count
// them (index); Commit updates them with every operation it applies, so
// they are never stale. They are read from the arc relations alone — the
// database keeps no second adjacency beside Out and OutAll.

var _ plan.Stats = (*Database)(nil)

// index counts the statistics from the arc relations and annotations.
func (d *Database) index() {
	d.labels = make(map[string]plan.LabelCard)
	d.annots = len(d.cre)
	root := d.Root()
	seen := make(map[string]bool) // labels of the node at hand
	for n, all := range d.outAll {
		clear(seen)
		for _, a := range all {
			lc := d.labels[a.Label]
			if !seen[a.Label] {
				seen[a.Label] = true
				lc.AllParents++
			}
			lc.AllArcs++
			if n == root {
				lc.AllRootOut++
			}
			d.labels[a.Label] = lc
		}
		clear(seen)
		for _, a := range d.current.Out(n) {
			lc := d.labels[a.Label]
			if !seen[a.Label] {
				seen[a.Label] = true
				lc.Parents++
			}
			lc.Arcs++
			if n == root {
				lc.RootOut++
			}
			d.labels[a.Label] = lc
		}
	}
	for _, ups := range d.upds {
		d.annots += len(ups)
	}
	for _, anns := range d.arcAnn {
		d.annots += len(anns)
	}
}

// hasLabel reports whether arcs hold an arc labeled like a other than a
// itself. Labels are canonical, so the comparison is a pointer compare
// whenever the lengths agree.
func hasLabel(arcs []oem.Arc, a oem.Arc) bool {
	for _, x := range arcs {
		if x.Label == a.Label && x != a {
			return true
		}
	}
	return false
}

// countAdd counts arc a, just added to the current snapshot; fresh reports
// that a also joined the full relation, which a re-add after a removal
// does not.
func (d *Database) countAdd(a oem.Arc, fresh bool) {
	lc, root := d.labels[a.Label], a.Parent == d.Root()
	if !hasLabel(d.current.Out(a.Parent), a) {
		lc.Parents++
	}
	lc.Arcs++
	if root {
		lc.RootOut++
	}
	if fresh {
		if !hasLabel(d.outAll[a.Parent], a) {
			lc.AllParents++
		}
		lc.AllArcs++
		if root {
			lc.AllRootOut++
		}
	}
	d.labels[a.Label] = lc
}

// countCut uncounts arc a, which left the current snapshot; rest holds the
// parent's current arcs that stay counted.
func (d *Database) countCut(a oem.Arc, rest []oem.Arc) {
	lc := d.labels[a.Label]
	if !hasLabel(rest, a) {
		lc.Parents--
	}
	lc.Arcs--
	if a.Parent == d.Root() {
		lc.RootOut--
	}
	d.labels[a.Label] = lc
}

// StatsVersion implements plan.Stats: a counter that advances on every
// successful Apply. Readers holding the database's read lock (see
// lore.Store.ViewIndexed) see a stable value; the planner's cached plans
// key on it.
func (d *Database) StatsVersion() uint64 { return d.version }

// NodeCount implements plan.Stats: every node ever present.
func (d *Database) NodeCount() int { return d.current.NumNodes() + len(d.deletedValues) }

// ArcCount implements plan.Stats: the arcs of the current snapshot.
func (d *Database) ArcCount() int { return d.current.NumArcs() }

// AnnotCount implements plan.Stats: every annotation in the history.
func (d *Database) AnnotCount() int { return d.annots }

// LabelStats implements plan.Stats.
func (d *Database) LabelStats(label string) plan.LabelCard { return d.labels[label] }
