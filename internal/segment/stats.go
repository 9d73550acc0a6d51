package segment

import (
	"sync"

	"repro/internal/oem"
	"repro/internal/plan"
)

// DB serves planner statistics from what already lives in memory: the
// active segment's own statistics cover the current snapshot (its current
// snapshot is the store's), the registry is the full arc relation, and the
// sealed summaries bound the annotation count. Nothing is read from disk —
// sealed segment indexes stay cold.
var _ plan.Stats = (*DB)(nil)

// statsCache holds the registry's per-label counts, the All* fields of
// plan.LabelCard: what would take a pass over the registry to recount.
// Store.Apply folds each arc new to the registry into them (addFull), so
// they are counted from scratch only on first use after Open and after
// Truncate; seals leave the registry as it is. The lock guards the lazy
// count: the query read path may race with itself building it (never with
// mutators — those exclude readers by contract).
type statsCache struct {
	mu     sync.Mutex
	labels map[string]plan.LabelCard // nil until first use
}

// StatsVersion implements plan.Stats: a composition of the active
// segment's version with the sealed-segment count and the active
// annotation count, so both Apply and Seal move it. (Seal replaces the
// active database, whose own version restarts; the segment count keeps
// the composite moving forward.) It pins cached plans, not the counts: a
// write re-prepares plans against statistics that were kept up, not
// recounted.
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
func (g *DB) ArcCount() int { return g.s.active.ArcCount() }

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
	c := &g.s.statsC
	c.mu.Lock()
	if c.labels == nil {
		c.labels = registryStats(g.s)
		mStatsRebuilds.Inc()
	}
	lc := c.labels[label]
	c.mu.Unlock()
	cur := g.s.active.LabelStats(label)
	lc.Parents, lc.Arcs, lc.RootOut = cur.Parents, cur.Arcs, cur.RootOut
	return lc
}

// dropStats discards the registry counts; the next query recounts them.
func (s *Store) dropStats() {
	s.statsC.mu.Lock()
	s.statsC.labels = nil
	s.statsC.mu.Unlock()
}

// addFull accounts for one arc newly appended to the registry; first
// reports that it opened its (parent, label) bucket there.
func addFull(labels map[string]plan.LabelCard, a oem.Arc, first, fromRoot bool) {
	lc := labels[a.Label]
	lc.AllArcs++
	if first {
		lc.AllParents++
	}
	if fromRoot {
		lc.AllRootOut++
	}
	labels[a.Label] = lc
}

// registryStats counts the registry per label. It is the first-use path
// and the oracle the folded counts are tested against.
func registryStats(s *Store) map[string]plan.LabelCard {
	labels := make(map[string]plan.LabelCard)
	seen := make(map[string]bool) // labels of the node at hand
	for n, arcs := range s.registry {
		clear(seen)
		for _, a := range arcs {
			addFull(labels, a, !seen[a.Label], n == s.active.Root())
			seen[a.Label] = true
		}
	}
	return labels
}
