package lorel

import (
	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// Graph abstracts the databases a query can range over. Plain OEM databases
// and DOEM databases both implement it; annotation accessors on a plain OEM
// graph simply report no annotations, so Chorel annotation expressions
// match nothing there (and plain Lorel queries behave identically on both —
// the paper's "a standard Lorel query over a DOEM database has exactly the
// semantics of the same query asked over the current snapshot").
//
// Concurrency contract: every method is a read. Implementations must be
// safe for any number of concurrent readers as long as the underlying
// database is not mutated mid-query — concurrent callers of one Engine
// (or of several engines registering the same graph) all read it at once. Both *doem.Database
// and *oem.Database honor this (their read methods are pure map and slice
// lookups with no interior caching); whoever mutates a shared database
// (doem.Apply, oem mutators) must exclude running queries, e.g. via
// lore.Store.ViewIndexed or wrapper.Mutable.
//
// *doem.Database satisfies Graph directly.
type Graph interface {
	// Root returns the root object.
	Root() oem.NodeID
	// Value returns the current value of node n.
	Value(n oem.NodeID) (value.Value, bool)
	// Out returns the current-snapshot arcs of n, in insertion order.
	Out(n oem.NodeID) []oem.Arc
	// OutAll returns every arc of n including removed ones.
	OutAll(n oem.NodeID) []oem.Arc
	// CreTime returns n's creation annotation, if any.
	CreTime(n oem.NodeID) (timestamp.Time, bool)
	// UpdTriplesIn returns n's upd annotations whose time lies in the
	// closed window [from, to], in timestamp order, with derived new
	// values: each one's is the old value of the next upd, so the last
	// one's is n's value at to (its current value when no upd follows).
	UpdTriplesIn(n oem.NodeID, from, to timestamp.Time) []doem.UpdInfo
	// ArcAnnotsIn returns the annotations on arc a whose time lies in the
	// closed window [from, to], in timestamp order.
	ArcAnnotsIn(a oem.Arc, from, to timestamp.Time) []doem.ArcAnnot
	// ArcLiveAt reports whether arc a existed at time t.
	ArcLiveAt(a oem.Arc, t timestamp.Time) bool
	// ValueAt returns the value of n at time t.
	ValueAt(n oem.NodeID, t timestamp.Time) value.Value
	// OutAt returns the arcs of n that existed at time t, in insertion
	// order: OutAll(n) filtered by ArcLiveAt(arc, t).
	OutAt(n oem.NodeID, t timestamp.Time) []oem.Arc
}

// assert *doem.Database implements Graph and LabelSeeker.
var (
	_ Graph       = (*doem.Database)(nil)
	_ LabelSeeker = (*doem.Database)(nil)
)

// LabelSeeker is an optional Graph extension serving exact-label arc
// lookups from an adjacency index keyed by interned label symbol, instead
// of a scan over Out or OutAll. The evaluator resolves a step's label to
// a symbol once per walk and probes with the id per binding; a label
// symbol.Lookup does not know matches nothing, and the evaluator falls to
// the scan. Implementations must return exactly the arcs, in the order,
// the scan would produce (insertion order, filtered) — the result
// ordering of indexed evaluation depends on it. *doem.Database provides
// it from its own label buckets.
type LabelSeeker interface {
	// OutLabeled returns the current-snapshot arcs of n whose label is
	// the canonical string of sym, in insertion order.
	OutLabeled(n oem.NodeID, sym symbol.ID) []oem.Arc
	// OutAllLabeled is the same over the full arc relation, removed arcs
	// included.
	OutAllLabeled(n oem.NodeID, sym symbol.ID) []oem.Arc
}

// OEMGraph adapts a plain *oem.Database to the Graph interface: the current
// snapshot is the whole database and every annotation accessor is empty.
type OEMGraph struct {
	DB *oem.Database
}

// NewOEMGraph wraps db for querying.
func NewOEMGraph(db *oem.Database) OEMGraph { return OEMGraph{DB: db} }

// Root implements Graph.
func (g OEMGraph) Root() oem.NodeID { return g.DB.Root() }

// Value implements Graph.
func (g OEMGraph) Value(n oem.NodeID) (value.Value, bool) { return g.DB.Value(n) }

// Out implements Graph.
func (g OEMGraph) Out(n oem.NodeID) []oem.Arc { return g.DB.Out(n) }

// OutAll implements Graph: same as Out, since nothing is ever annotated
// as removed.
func (g OEMGraph) OutAll(n oem.NodeID) []oem.Arc { return g.DB.Out(n) }

// CreTime implements Graph: plain OEM has no annotations.
func (g OEMGraph) CreTime(oem.NodeID) (timestamp.Time, bool) {
	return timestamp.Time{}, false
}

// UpdTriplesIn implements Graph: plain OEM has no annotations.
func (g OEMGraph) UpdTriplesIn(oem.NodeID, timestamp.Time, timestamp.Time) []doem.UpdInfo {
	return nil
}

// ArcAnnotsIn implements Graph: plain OEM has no annotations.
func (g OEMGraph) ArcAnnotsIn(oem.Arc, timestamp.Time, timestamp.Time) []doem.ArcAnnot {
	return nil
}

// ArcLiveAt implements Graph: without history, an arc is considered to have
// always existed.
func (g OEMGraph) ArcLiveAt(a oem.Arc, _ timestamp.Time) bool {
	return g.DB.HasArc(a.Parent, a.Label, a.Child)
}

// OutAt implements Graph: without history, every arc always existed.
func (g OEMGraph) OutAt(n oem.NodeID, _ timestamp.Time) []oem.Arc { return g.DB.Out(n) }

// ValueAt implements Graph: without history, the value is constant.
func (g OEMGraph) ValueAt(n oem.NodeID, _ timestamp.Time) value.Value {
	v, _ := g.DB.Value(n)
	return v
}
