package doem

import (
	"slices"

	"repro/internal/oem"
	"repro/internal/plan"
	"repro/internal/symbol"
)

// The database's access paths — the indexes on annotations of the paper's
// Section 7, kept on the annotated graph itself: (node, label) buckets of
// the current and full arc relations and the planner's per-label
// cardinalities. New and Clone build them (index); Commit updates them
// with every operation it applies, so they are never stale.

var _ plan.Stats = (*Database)(nil)

// pathKey addresses one (node, label) bucket: a fixed-size key whose hash
// never touches the label bytes.
type pathKey struct {
	n   oem.NodeID
	sym symbol.ID
}

// keyOf returns the bucket of arc a. Labels reaching here were
// canonicalized when the arc was added, so Intern is a lock-free hit.
func keyOf(a oem.Arc) pathKey {
	sym, _ := symbol.Intern(a.Label)
	return pathKey{a.Parent, sym}
}

// bucket holds one node's arcs with one label: all of them in OutAll order,
// and those of the current snapshot in Out order. The two sequences are
// one slice until the bucket loses an arc — a removal, or the node's
// collection — and cur holds the current arcs from then on.
type bucket struct {
	all []oem.Arc
	cur *[]oem.Arc // nil while every arc is current
}

func (b bucket) current() []oem.Arc {
	if b.cur == nil {
		return b.all
	}
	return *b.cur
}

// index builds the access paths from the arc relations and annotations.
// A bucket whose arcs sit next to each other in OutAll — every bucket of
// a node whose labels come in runs — is a window on the OutAll slice, not
// a copy of it; the window's capacity ends with it, so an append to
// either copies instead of writing into the other.
func (d *Database) index() {
	d.paths = make(map[pathKey]bucket, d.current.NumArcs())
	d.labels = make(map[string]plan.LabelCard)
	d.annots = len(d.cre)
	for n, all := range d.outAll {
		for i, a := range all {
			k := keyOf(a)
			b := d.paths[k]
			switch j := len(b.all); {
			case j == 0:
				b.all = all[i : i+1 : i+1]
			case &b.all[j-1] == &all[i-1]: // the window ends just before a
				b.all = all[i-j : i+1 : i+1]
			default:
				b.all = append(b.all, a)
			}
			d.paths[k] = b
		}
		if cur := d.current.Out(n); !slices.Equal(cur, all) {
			for _, a := range all {
				k := keyOf(a)
				d.paths[k] = bucket{all: d.paths[k].all, cur: new([]oem.Arc)}
			}
			for _, a := range cur {
				b := d.paths[keyOf(a)]
				*b.cur = append(*b.cur, a)
			}
		}
	}
	root := d.Root()
	for k, b := range d.paths {
		label := b.all[0].Label
		lc, cur := d.labels[label], b.current()
		lc.AllParents++
		lc.AllArcs += len(b.all)
		if len(cur) > 0 {
			lc.Parents++
		}
		lc.Arcs += len(cur)
		if k.n == root {
			lc.AllRootOut += len(b.all)
			lc.RootOut += len(cur)
		}
		d.labels[label] = lc
	}
	for _, ups := range d.upds {
		d.annots += len(ups)
	}
	for _, anns := range d.arcAnn {
		d.annots += len(anns)
	}
}

// addPath files arc a, just added to the current snapshot, in bucket k and
// counts it; fresh reports that a also joins the full relation, which a
// re-add after a removal does not.
func (d *Database) addPath(k pathKey, a oem.Arc, fresh bool) {
	b, lc := d.paths[k], d.labels[a.Label]
	if len(b.current()) == 0 {
		lc.Parents++
	}
	lc.Arcs++
	if fresh {
		if len(b.all) == 0 {
			lc.AllParents++
		}
		lc.AllArcs++
		b.all = append(b.all, a)
	}
	if b.cur != nil {
		*b.cur = append(*b.cur, a)
	}
	if a.Parent == d.Root() {
		lc.RootOut++
		if fresh {
			lc.AllRootOut++
		}
	}
	d.paths[k], d.labels[a.Label] = b, lc
}

// cutPath takes arcs out of bucket k's current sequence — the one arc a,
// or all of them when a is nil because the node was collected — and
// uncounts them. The first cut copies, since the full sequence shares the
// array; later ones shift the bucket's own array in place, which no reader
// can observe because mutators exclude readers.
func (d *Database) cutPath(k pathKey, a *oem.Arc) {
	b := d.paths[k]
	cur := b.current()
	if len(cur) == 0 {
		return
	}
	label := cur[0].Label // before a shift clears the tail
	var rest []oem.Arc
	if a != nil {
		i := slices.Index(cur, *a)
		if b.cur != nil {
			rest = slices.Delete(cur, i, i+1)
		} else {
			rest = slices.Concat(cur[:i], cur[i+1:])
		}
	}
	cut := len(cur) - len(rest)
	lc := d.labels[label]
	if len(rest) == 0 {
		lc.Parents--
	}
	lc.Arcs -= cut
	if k.n == d.Root() {
		lc.RootOut -= cut
	}
	if b.cur == nil {
		b.cur = new([]oem.Arc)
		d.paths[k] = b
	}
	*b.cur = rest
	d.labels[label] = lc
}

// OutLabeled implements lorel.LabelSeeker: the current-snapshot arcs of n
// labeled sym, in Out order. The slice must not be modified.
func (d *Database) OutLabeled(n oem.NodeID, sym symbol.ID) []oem.Arc {
	return d.paths[pathKey{n, sym}].current()
}

// OutAllLabeled implements lorel.LabelSeeker over the full arc relation,
// in OutAll order. The slice must not be modified.
func (d *Database) OutAllLabeled(n oem.NodeID, sym symbol.ID) []oem.Arc {
	return d.paths[pathKey{n, sym}].all
}

// StatsVersion implements plan.Stats: the statistics move with every step.
func (d *Database) StatsVersion() uint64 { return d.version }

// NodeCount implements plan.Stats: every node ever present.
func (d *Database) NodeCount() int { return d.current.NumNodes() + len(d.deletedValues) }

// ArcCount implements plan.Stats: the arcs of the current snapshot.
func (d *Database) ArcCount() int { return d.current.NumArcs() }

// AnnotCount implements plan.Stats: every annotation in the history.
func (d *Database) AnnotCount() int { return d.annots }

// LabelStats implements plan.Stats.
func (d *Database) LabelStats(label string) plan.LabelCard { return d.labels[label] }
