package segment

import (
	"sync"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/plan"
	"repro/internal/symbol"
)

// DB serves planner statistics from the store summaries that already live
// in memory: the registry is the full arc relation, the active segment is
// the current snapshot, and the sealed summaries bound the annotation
// count. Nothing is read from disk — sealed segment indexes stay cold.
var _ plan.Stats = (*DB)(nil)

// storeStats is the materialized part of the statistics: what would take a
// pass over the current snapshot and the registry to recount. Node and
// annotation totals are O(1) reads of store fields and are not cached.
// Store.Apply folds each change set into it (addFull, advanceCurrent), so
// it is built from scratch only on first use after Open and after
// Truncate; seals change neither the current snapshot nor the registry and
// leave it valid.
type storeStats struct {
	arcCount int
	labels   map[string]plan.LabelCard
}

// statsCache guards the summary pointer: the query read path may race
// with itself building it lazily (never with mutators — those exclude
// readers by contract).
type statsCache struct {
	mu  sync.Mutex
	cur *storeStats
}

// StatsVersion implements plan.Stats: a composition of the active
// segment's version with the sealed-segment count and the active
// annotation count, so both Apply and Seal move it. (Seal replaces the
// active database, whose own version restarts; the segment count keeps
// the composite moving forward.) It pins cached plans, not the summary:
// a write re-prepares plans against statistics that were advanced, not
// rebuilt.
func (g *DB) StatsVersion() uint64 {
	s := g.s
	v := s.active.Version()
	v = v*0x100000001b3 + uint64(len(s.segs))*0x9e3779b97f4a7c15
	return v + uint64(s.activeAnnots)
}

// NodeCount implements plan.Stats: the id high-water mark approximates
// "nodes ever created" without touching sealed history (ids are dense in
// practice and never reused).
func (g *DB) NodeCount() int { return int(g.s.MaxID()) }

// ArcCount implements plan.Stats.
func (g *DB) ArcCount() int { return g.stats().arcCount }

// AnnotCount implements plan.Stats: the active segment's exact count plus
// a sealed-history estimate from the summaries (one annotation per
// creation, and at least one — counted as two, the add/rem average — per
// arc annotated in sealed history). Costing needs magnitude, not
// exactness.
func (g *DB) AnnotCount() int {
	s := g.s
	return s.activeAnnots + 2*len(s.sealedStatus) + len(s.cre)
}

// LabelStats implements plan.Stats.
func (g *DB) LabelStats(label string) plan.LabelCard {
	return g.stats().labels[label]
}

// stats returns the summary, building it when there is none to advance.
func (g *DB) stats() *storeStats {
	c := &g.s.statsC
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		c.cur = buildStoreStats(g.s)
		mStatsRebuilds.Inc()
	}
	return c.cur
}

// dropStats discards the summary; the next query rebuilds it.
func (s *Store) dropStats() {
	s.statsC.mu.Lock()
	s.statsC.cur = nil
	s.statsC.mu.Unlock()
}

// pl addresses one (parent, label) bucket of an arc relation.
type pl struct {
	n     oem.NodeID
	label string
}

// countLabel counts the l-labeled arcs of one adjacency list.
func countLabel(arcs []oem.Arc, l string, skip func(oem.Arc) bool) int {
	n := 0
	for _, a := range arcs {
		if a.Label == l && (skip == nil || !skip(a)) {
			n++
		}
	}
	return n
}

// addFull accounts for one arc newly appended to the registry; first
// reports that it opened its (parent, label) bucket there.
func (st *storeStats) addFull(a oem.Arc, first, fromRoot bool) {
	lc := st.labels[a.Label]
	lc.AllArcs++
	if first {
		lc.AllParents++
	}
	if fromRoot {
		lc.AllRootOut++
	}
	st.labels[a.Label] = lc
}

// advanceCurrent folds one change set, already applied to the active
// segment d, into the current-snapshot statistics so they equal what
// buildStoreStats would recount. Each touched (parent, label) bucket is
// settled from its size after the operations and the set's net effect on
// it; the nodes the step collected then give back the arcs they still
// held. Cost follows the set and the out-degree of the parents it touches.
func (st *storeStats) advanceCurrent(d *doem.Database, ops change.Set) {
	root := d.Root()
	net := make(map[pl]int)
	for _, op := range ops {
		switch o := op.(type) {
		case change.AddArc:
			net[pl{o.Parent, o.Label}]++
		case change.RemArc:
			net[pl{o.Parent, o.Label}]--
		}
	}
	for k, delta := range net {
		// The bucket's size once the operations had run: a collected parent
		// has left the snapshot, but its OutAll arcs not marked dead are
		// exactly the ones it held when the collection took it.
		var after int
		if d.Current().Has(k.n) {
			after = countLabel(d.Out(k.n), k.label, nil)
		} else {
			after = countLabel(d.OutAll(k.n), k.label, d.IsDead)
		}
		label := symbol.Canon(k.label)
		lc := st.labels[label]
		lc.Arcs += delta
		if k.n == root {
			lc.RootOut += delta
		}
		if before := after - delta; before == 0 && after > 0 {
			lc.Parents++
		} else if before > 0 && after == 0 {
			lc.Parents--
		}
		st.labels[label] = lc
		st.arcCount += delta
	}

	seen := make(map[string]bool) // labels of the node at hand
	for _, n := range d.Collected() {
		clear(seen)
		for _, a := range d.OutAll(n) {
			if d.IsDead(a) {
				continue
			}
			lc := st.labels[a.Label]
			lc.Arcs--
			if !seen[a.Label] {
				seen[a.Label] = true
				lc.Parents--
			}
			st.labels[a.Label] = lc
			st.arcCount--
		}
	}
}

// buildStoreStats recounts the summary from the active segment (the
// current snapshot) and the registry (the full relation). It is the
// first-use path and the oracle advanceStats is tested against.
func buildStoreStats(s *Store) *storeStats {
	st := &storeStats{labels: make(map[string]plan.LabelCard)}
	root := s.active.Root()

	// Current snapshot: the active segment alone.
	seen := make(map[pl]bool)
	for _, n := range s.active.AllNodeIDs() {
		for _, a := range s.active.Out(n) {
			lc := st.labels[a.Label]
			if k := (pl{n, a.Label}); !seen[k] {
				seen[k] = true
				lc.Parents++
			}
			lc.Arcs++
			if n == root {
				lc.RootOut++
			}
			st.labels[a.Label] = lc
			st.arcCount++
		}
	}

	// Full relation: the registry.
	seenAll := make(map[pl]bool)
	for n, arcs := range s.registry {
		for _, a := range arcs {
			lc := st.labels[a.Label]
			if k := (pl{n, a.Label}); !seenAll[k] {
				seenAll[k] = true
				lc.AllParents++
			}
			lc.AllArcs++
			if n == root {
				lc.AllRootOut++
			}
			st.labels[a.Label] = lc
		}
	}
	return st
}
