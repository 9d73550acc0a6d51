// Package index memoizes the <at T> views of a DOEM database. A view is
// the live-arc relation of the whole database at one instant T; a query
// stepping through <at T> asks OutAt(n, T) once per node it reaches, and a
// workload that repeats a few instants asks for the same views again and
// again. Everything else a query reads — label buckets, upd chains,
// planner statistics, the binary searches behind ValueAt and ArcLiveAt —
// the database keeps itself, and Graph serves it by embedding
// *doem.Database.
//
// The memo belongs to one database version: a reader that finds
// Version() moved drops it whole. It holds at most viewCap views, least
// recently used first out.
//
// Concurrency: Graph is safe for concurrent readers under the same
// contract as doem.Database itself (mutators exclude readers); the memo
// has its own lock.
package index

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/doem"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/plan"
	"repro/internal/timestamp"
)

// viewCap bounds the memo. Views are whole-database materializations, so
// the bound is what keeps a stream of distinct instants from holding one
// per instant.
const viewCap = 16

// Memo metrics, documented in docs/indexing.md.
var (
	mHits      = obs.NewCounter("index_snapshot_cache_hits_total")
	mMisses    = obs.NewCounter("index_snapshot_cache_misses_total")
	mEvictions = obs.NewCounter("index_snapshot_cache_evictions_total")
	mBuildNs   = obs.NewHistogram("index_snapshot_build_ns")
)

// Graph is a DOEM database whose OutAt is served from the memo.
type Graph struct {
	*doem.Database

	mu    sync.Mutex
	gen   uint64 // the Version() the memoized views were built at
	order *list.List
	views map[timestamp.Time]*list.Element

	// hot is the most recently returned view. A single <at T> query calls
	// OutAt once per traversed node with the same T, so this lock-free
	// check turns the common repeat into one atomic load instead of a
	// mutex acquisition plus a recency update.
	hot atomic.Pointer[memoView]
}

var (
	_ lorel.Graph       = (*Graph)(nil)
	_ lorel.LabelSeeker = (*Graph)(nil)
	_ plan.Stats        = (*Graph)(nil)
)

// memoView is the view of one instant, doem.Database.ArcsAt(t), as built
// for one version.
type memoView struct {
	gen uint64
	t   timestamp.Time
	out map[oem.NodeID][]oem.Arc
}

// NewGraph returns d with an empty memo.
func NewGraph(d *doem.Database) *Graph {
	g := &Graph{Database: d}
	g.Invalidate()
	return g
}

// Invalidate drops the memo.
func (g *Graph) Invalidate() {
	g.mu.Lock()
	g.order, g.views = list.New(), make(map[timestamp.Time]*list.Element)
	g.hot.Store(nil)
	g.mu.Unlock()
}

// OutAt implements lorel.Graph: the arcs of n live at t, from the memoized
// view of t.
func (g *Graph) OutAt(n oem.NodeID, t timestamp.Time) []oem.Arc {
	return g.viewAt(t).out[n]
}

// viewAt returns the view of t for the database's current version,
// building and memoizing it on a miss.
func (g *Graph) viewAt(t timestamp.Time) *memoView {
	gen := g.Version()
	if v := g.hot.Load(); v != nil && v.gen == gen && v.t == t {
		mHits.Inc()
		return v
	}
	g.mu.Lock()
	if g.gen != gen {
		g.gen, g.order, g.views = gen, list.New(), make(map[timestamp.Time]*list.Element)
	}
	v := g.lookup(t)
	g.mu.Unlock()
	if v == nil {
		mMisses.Inc()
		start := obs.Now()
		v = &memoView{gen: gen, t: t, out: g.ArcsAt(t)}
		mBuildNs.ObserveSince(start)
		g.mu.Lock()
		if cached := g.lookup(t); cached != nil {
			v = cached // a concurrent reader built the same view
		} else {
			g.views[t] = g.order.PushFront(v)
			if g.order.Len() > viewCap {
				delete(g.views, g.order.Remove(g.order.Back()).(*memoView).t)
				mEvictions.Inc()
			}
		}
		g.mu.Unlock()
	} else {
		mHits.Inc()
	}
	g.hot.Store(v)
	return v
}

// lookup returns the memoized view of t, marking it most recently used, or
// nil. The caller holds g.mu.
func (g *Graph) lookup(t timestamp.Time) *memoView {
	el, ok := g.views[t]
	if !ok {
		return nil
	}
	g.order.MoveToFront(el)
	return el.Value.(*memoView)
}
