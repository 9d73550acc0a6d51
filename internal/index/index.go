// Package index provides query-path secondary indexes over DOEM databases:
// per-(node, label) adjacency maps, time-sorted annotation lookups resolved
// by binary search, and an LRU-bounded cache of materialized historical
// views keyed by (graph generation, T).
//
// Graph wraps a *doem.Database and implements lorel.Graph plus the
// evaluator's optional lorel.LabelSeeker. Every accessor returns exactly
// what the raw database would — same arcs, same insertion order — so
// evaluation over a Graph and over the raw database are byte-identical;
// the property and fuzz tests in this package enforce that.
//
// Index structures are built lazily on first use and keyed to
// doem.Database.Version(). Mutation sites (lore.Store ApplySet, QSS poll
// application, QSS replication) follow each doem.Database.Apply with
// Advance, which folds the step's change set into the tables in place and
// keeps every cached view of an instant before the step (history is
// append-only, so those cannot change). The Version() check remains the
// safety net: tables that are not exactly one generation behind when
// Advance runs, or that a reader finds behind the database because a site
// never called it, are rebuilt from scratch by buildTables — which is also
// the first-use path and the oracle the delta path is tested against.
//
// Concurrency: Graph is safe for concurrent readers under the same
// contract as doem.Database itself (mutators exclude readers). Internal
// lazy builds and cache updates are guarded by the Graph's own locks.
package index

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/plan"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// Default cache capacities. Views are what poll-time and <at T> queries
// hit repeatedly; snapshots are full O_t(D) materializations, larger and
// rarer, so they get a smaller budget. See docs/indexing.md for sizing
// guidance.
const (
	DefaultViewCacheSize     = 16
	DefaultSnapshotCacheSize = 4
)

// Graph is an indexed read-only view of a DOEM database.
type Graph struct {
	d *doem.Database

	viewCap int
	snapCap int

	mu  sync.RWMutex
	tab *tables // nil until first use; advanced or rebuilt when d.Version() moves
}

var (
	_ lorel.Graph       = (*Graph)(nil)
	_ lorel.LabelSeeker = (*Graph)(nil)
)

// NewGraph returns an indexed wrapper over d with default cache sizes.
// Index structures are built on first use, not here.
func NewGraph(d *doem.Database) *Graph {
	return &Graph{d: d, viewCap: DefaultViewCacheSize, snapCap: DefaultSnapshotCacheSize}
}

// SetCacheSizes adjusts the view and snapshot LRU capacities (minimum 1
// each) and drops any cached state.
func (g *Graph) SetCacheSizes(views, snapshots int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if views > 0 {
		g.viewCap = views
	}
	if snapshots > 0 {
		g.snapCap = snapshots
	}
	g.tab = nil
}

// DOEM returns the wrapped database.
func (g *Graph) DOEM() *doem.Database { return g.d }

// Invalidate drops every index structure and cached view. The next read
// rebuilds against the database's current generation. It is the explicit
// full drop; mutation sites use Advance instead.
func (g *Graph) Invalidate() {
	g.mu.Lock()
	g.tab = nil
	g.mu.Unlock()
}

// symKey addresses the adjacency indexes: a fixed-size 12-byte key (node
// id + interned label id) whose hash never touches the label bytes.
type symKey struct {
	n   oem.NodeID
	sym symbol.ID
}

// tables holds every structure derived from one database generation; gen
// moves with Advance. The cached views and snapshots are keyed by T alone:
// Advance evicts the ones a step can change, and dropping the tables drops
// them all.
type tables struct {
	gen uint64
	// nodes is AllNodeIDs(): every node ever, ascending.
	nodes []oem.NodeID
	// outLabeled indexes the current snapshot's arcs by (parent, label
	// symbol), preserving insertion order within each label.
	outLabeled map[symKey][]oem.Arc
	// outAllLabeled is the same over the full arc relation, removed arcs
	// included.
	outAllLabeled map[symKey][]oem.Arc
	// updInfos caches UpdTriples per node (upd annotations ascending by
	// timestamp, with derived new values) so <upd ...> matching and
	// ValueAt binary searches reuse one materialization.
	updInfos map[oem.NodeID][]doem.UpdInfo

	// Planner statistics, accumulated during the same build pass (see
	// stats.go): per-label cardinalities plus arc/annotation totals.
	labelStats map[string]plan.LabelCard
	arcTotal   int
	annotTotal int

	// mu guards the caches below (lru.get mutates recency order).
	mu    sync.Mutex
	views *lru[timestamp.Time, *view]
	snaps *lru[timestamp.Time, *oem.Database]

	// read records that a reader has consulted the tables since they were
	// built or last advanced. Advance keeps up only tables that are being
	// read: patching an index nobody consults would spend the write path's
	// time and hold its memory for nothing (a subscription whose filter is
	// never evaluated again would otherwise carry its tables forever).
	read atomic.Bool

	// hot is the most recently returned view. A single <at T> query calls
	// OutAt once per traversed node with the same T, so this lock-free
	// check turns the common repeat into one atomic load instead of a
	// mutex acquisition plus an LRU reorder.
	hot atomic.Pointer[hotView]
}

// hotView pairs a view with the instant it materializes.
type hotView struct {
	t timestamp.Time
	v *view
}

// view is the live-arc relation of the whole database at one instant T:
// for every node ever present, the arcs of OutAll that ArcLiveAt(·, T)
// admits, in insertion order. Unlike a garbage-collected snapshot it keeps
// arcs of nodes unreachable at T, because direct evaluation can traverse
// such arcs (a node reached through the current snapshot and then stepped
// through <at T>); dropping them would diverge from the unindexed path.
type view struct {
	out map[oem.NodeID][]oem.Arc
}

// tables returns the index structures for the database's current
// generation, building them on first use or after a mutation.
func (g *Graph) tables() *tables {
	gen := g.d.Version()
	g.mu.RLock()
	t := g.tab
	g.mu.RUnlock()
	if t != nil && t.gen == gen {
		if !t.read.Load() { // load first: readers share the line, one stores
			t.read.Store(true)
		}
		return t
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.tab != nil && g.tab.gen == gen {
		return g.tab
	}
	start := now()
	g.tab = buildTables(g.d, gen, g.viewCap, g.snapCap)
	g.tab.read.Store(true)
	mBuilds.Inc()
	mBuildNs.ObserveSince(start)
	return g.tab
}

func buildTables(d *doem.Database, gen uint64, viewCap, snapCap int) *tables {
	t := &tables{
		gen:           gen,
		nodes:         d.AllNodeIDs(),
		outLabeled:    make(map[symKey][]oem.Arc),
		outAllLabeled: make(map[symKey][]oem.Arc),
		updInfos:      make(map[oem.NodeID][]doem.UpdInfo),
		labelStats:    make(map[string]plan.LabelCard),
		annotTotal:    d.NumAnnotations(),
		views:         newLRU[timestamp.Time, *view](viewCap),
		snaps:         newLRU[timestamp.Time, *oem.Database](snapCap),
	}
	root := d.Root()
	for _, n := range t.nodes {
		for _, a := range d.Out(n) {
			t.addArc(false, a, n == root)
		}
		for _, a := range d.OutAll(n) {
			t.addArc(true, a, n == root)
		}
		if ups := d.UpdTriples(n); len(ups) > 0 {
			t.updInfos[n] = ups
		}
	}
	return t
}

// symOf resolves a label to the symbol its bucket is keyed by. Labels
// reaching here were canonicalized at AddArc, so Intern is a lock-free hit.
func symOf(label string) symbol.ID {
	id, _ := symbol.Intern(label)
	return id
}

// addArc appends a to its (parent, label) bucket of the current relation,
// or of the full one when all, and counts it in the label statistics.
func (t *tables) addArc(all bool, a oem.Arc, fromRoot bool) {
	m, k := t.outLabeled, symKey{a.Parent, symOf(a.Label)}
	if all {
		m = t.outAllLabeled
	}
	first := len(m[k]) == 0
	m[k] = append(m[k], a)
	lc := t.labelStats[a.Label]
	if all {
		lc.AllArcs++
		if first {
			lc.AllParents++
		}
		if fromRoot {
			lc.AllRootOut++
		}
	} else {
		lc.Arcs++
		if first {
			lc.Parents++
		}
		if fromRoot {
			lc.RootOut++
		}
		t.arcTotal++
	}
	t.labelStats[a.Label] = lc
}

// cutCurrent takes arcs out of the (n, label) bucket of the current
// relation — the one arc a, or the whole bucket when a is nil — and
// uncounts them. The surviving bucket is a fresh slice, never an in-place
// shift, matching how oem.Database itself removes arcs.
func (t *tables) cutCurrent(n oem.NodeID, label string, a *oem.Arc, fromRoot bool) {
	k := symKey{n, symOf(label)}
	bucket := t.outLabeled[k]
	var rest []oem.Arc
	if a != nil {
		rest = bucket
		for i, x := range bucket {
			if x == *a {
				rest = append(bucket[:i:i], bucket[i+1:]...)
				break
			}
		}
	}
	cut := len(bucket) - len(rest)
	if cut == 0 {
		return
	}
	if len(rest) == 0 {
		delete(t.outLabeled, k)
	} else {
		t.outLabeled[k] = rest
	}
	lc := t.labelStats[label]
	lc.Arcs -= cut
	if len(rest) == 0 {
		lc.Parents--
	}
	if fromRoot {
		lc.RootOut -= cut
	}
	t.labelStats[label] = lc
	t.arcTotal -= cut
}

// Advance follows one doem.Database.Apply(at, ops) on the wrapped database:
// it folds the step into the tables built for the generation before it, so
// they equal what buildTables would produce now, and drops only the cached
// views and snapshots of instants at or after the step. It must run under
// the same exclusion as the Apply itself. Tables that are not exactly one
// generation behind are dropped instead and the next read rebuilds them, so
// a call that does not match the database's history degrades to
// Invalidate; so are tables no reader has consulted since the previous
// step, which are not worth keeping up.
func (g *Graph) Advance(at timestamp.Time, ops change.Set) {
	g.mu.Lock()
	defer g.mu.Unlock()
	t := g.tab
	if t == nil {
		return
	}
	gen := g.d.Version()
	if t.gen+1 != gen || !t.read.Load() {
		g.tab = nil
		return
	}
	t.advance(g.d, at, ops)
	t.gen = gen
	t.read.Store(false)
	mAdvances.Inc()
}

func (t *tables) advance(d *doem.Database, at timestamp.Time, ops change.Set) {
	root := d.Root()
	// Canonical order is the order Apply appended arcs to Out and OutAll.
	for _, op := range ops.Canonical() {
		switch o := op.(type) {
		case change.CreNode:
			i := sort.Search(len(t.nodes), func(i int) bool { return t.nodes[i] >= o.Node })
			t.nodes = append(t.nodes, 0)
			copy(t.nodes[i+1:], t.nodes[i:])
			t.nodes[i] = o.Node
		case change.UpdNode:
			t.updInfos[o.Node] = d.UpdTriples(o.Node)
		case change.AddArc:
			a := oem.Arc{Parent: o.Parent, Label: symbol.Canon(o.Label), Child: o.Child}
			t.addArc(false, a, o.Parent == root)
			// An arc seen for the first time carries this step's add as its
			// only annotation; a re-added one keeps its place in OutAll.
			if len(d.ArcAnnots(a)) == 1 {
				t.addArc(true, a, o.Parent == root)
			}
		case change.RemArc:
			a := oem.Arc{Parent: o.Parent, Label: o.Label, Child: o.Child}
			t.cutCurrent(o.Parent, o.Label, &a, o.Parent == root)
		}
	}
	t.annotTotal += len(ops)
	// A collected node takes the arcs it still held out of the current
	// relation; they stay in OutAll and so in the full one.
	for _, n := range d.Collected() {
		for _, a := range d.OutAll(n) {
			t.cutCurrent(n, a.Label, nil, false)
		}
	}

	stale := func(k timestamp.Time) bool { return !k.Before(at) }
	t.mu.Lock()
	t.views.removeIf(stale)
	t.snaps.removeIf(stale)
	t.mu.Unlock()
	if h := t.hot.Load(); h != nil && stale(h.t) {
		t.hot.Store(nil)
	}
}

// --- lorel.Graph: plain delegates -----------------------------------------

// Root returns the root object id.
func (g *Graph) Root() oem.NodeID { return g.d.Root() }

// Value returns the current (final) value of n.
func (g *Graph) Value(n oem.NodeID) (value.Value, bool) { return g.d.Value(n) }

// Out returns the current-snapshot arcs of n, in insertion order.
func (g *Graph) Out(n oem.NodeID) []oem.Arc { return g.d.Out(n) }

// OutAll returns every arc of n including removed ones.
func (g *Graph) OutAll(n oem.NodeID) []oem.Arc { return g.d.OutAll(n) }

// CreTime returns n's creation annotation, if any.
func (g *Graph) CreTime(n oem.NodeID) (timestamp.Time, bool) { return g.d.CreTime(n) }

// ArcAnnots returns the annotations on arc a in timestamp order.
func (g *Graph) ArcAnnots(a oem.Arc) []doem.ArcAnnot { return g.d.ArcAnnots(a) }

// --- lorel.Graph: indexed implementations ---------------------------------

// UpdTriples returns n's upd annotations with derived new values, served
// from the per-generation cache instead of re-deriving on every call.
func (g *Graph) UpdTriples(n oem.NodeID) []doem.UpdInfo { return g.tables().updInfos[n] }

// ValueAt returns the value of n at time t, binary-searching the
// time-sorted upd annotations: if the latest upd is at or before t (or
// there are none) the current value, otherwise the old value of the
// earliest upd strictly after t — identical to doem.Database.ValueAt.
func (g *Graph) ValueAt(n oem.NodeID, t timestamp.Time) value.Value {
	ups := g.tables().updInfos[n]
	cur, _ := g.d.Value(n)
	if len(ups) == 0 || !ups[len(ups)-1].At.After(t) {
		return cur
	}
	i := sort.Search(len(ups), func(i int) bool { return ups[i].At.After(t) })
	return ups[i].Old
}

// ArcLiveAt reports whether arc a existed at time t, binary-searching the
// arc's time-sorted annotation list. Semantics match
// doem.Database.ArcLiveAt exactly, including the inclusive boundary: an
// annotation timestamped exactly t takes effect at t.
func (g *Graph) ArcLiveAt(a oem.Arc, t timestamp.Time) bool {
	return arcLiveAt(g.d, a, t)
}

// arcLiveAt is the binary-search form of doem.Database.ArcLiveAt: the
// arc's state is decided by the latest annotation with At <= t, or by the
// arc's initial liveness (no annotations, or earliest is rem) if none.
func arcLiveAt(d *doem.Database, a oem.Arc, t timestamp.Time) bool {
	anns := d.ArcAnnots(a)
	k := sort.Search(len(anns), func(i int) bool { return anns[i].At.After(t) })
	if k == 0 {
		return len(anns) == 0 || anns[0].Kind == doem.AnnotRem
	}
	return anns[k-1].Kind == doem.AnnotAdd
}

// --- lorel.LabelSeeker and time travel -----------------------------------

// OutLabeled implements lorel.LabelSeeker: the current-snapshot arcs of n
// labeled sym, in insertion order.
func (g *Graph) OutLabeled(n oem.NodeID, sym symbol.ID) []oem.Arc {
	return g.tables().outLabeled[symKey{n, sym}]
}

// OutAllLabeled implements lorel.LabelSeeker over the full arc relation.
func (g *Graph) OutAllLabeled(n oem.NodeID, sym symbol.ID) []oem.Arc {
	return g.tables().outAllLabeled[symKey{n, sym}]
}

// OutAt implements lorel.Graph: the arcs of n live at time t, from the
// (generation, t)-keyed view cache.
func (g *Graph) OutAt(n oem.NodeID, t timestamp.Time) []oem.Arc {
	return g.viewAt(t).out[n]
}

// viewAt returns the materialized live-arc view for time t, building and
// caching it on a miss.
func (g *Graph) viewAt(t timestamp.Time) *view {
	tab := g.tables()
	if h := tab.hot.Load(); h != nil && h.t == t {
		mCacheHits.Inc()
		return h.v
	}
	tab.mu.Lock()
	if v, ok := tab.views.get(t); ok {
		tab.mu.Unlock()
		tab.hot.Store(&hotView{t: t, v: v})
		mCacheHits.Inc()
		return v
	}
	tab.mu.Unlock()
	mCacheMisses.Inc()
	start := now()
	v := buildView(g.d, tab, t)
	mSnapshotBuildNs.ObserveSince(start)
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if cached, ok := tab.views.get(t); ok {
		// A concurrent reader built the same view; keep the cached one.
		tab.hot.Store(&hotView{t: t, v: cached})
		return cached
	}
	if tab.views.add(t, v) {
		mCacheEvictions.Inc()
	}
	tab.hot.Store(&hotView{t: t, v: v})
	return v
}

func buildView(d *doem.Database, tab *tables, t timestamp.Time) *view {
	v := &view{out: make(map[oem.NodeID][]oem.Arc, len(tab.nodes))}
	for _, n := range tab.nodes {
		all := d.OutAll(n)
		var live []oem.Arc
		for _, a := range all {
			if arcLiveAt(d, a, t) {
				live = append(live, a)
			}
		}
		if live != nil {
			v.out[n] = live
		}
	}
	return v
}

// --- memoized snapshot extraction -----------------------------------------

// SnapshotAt materializes O_t(D) like doem.Database.SnapshotAt, memoized
// in an LRU keyed by (generation, t). The returned database is shared
// between callers and with the cache: treat it as read-only and Clone it
// before mutating.
func (g *Graph) SnapshotAt(t timestamp.Time) *oem.Database {
	tab := g.tables()
	tab.mu.Lock()
	if s, ok := tab.snaps.get(t); ok {
		tab.mu.Unlock()
		mCacheHits.Inc()
		return s
	}
	tab.mu.Unlock()
	mCacheMisses.Inc()
	start := now()
	s := g.d.SnapshotAt(t)
	mSnapshotBuildNs.ObserveSince(start)
	tab.mu.Lock()
	defer tab.mu.Unlock()
	if cached, ok := tab.snaps.get(t); ok {
		return cached
	}
	if tab.snaps.add(t, s) {
		mCacheEvictions.Inc()
	}
	return s
}
