package lorel

import (
	"repro/internal/doem"
	"repro/internal/oem"
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
// There is no time-travel adjacency method: a step through <at T> (or any
// step below one) reads OutAll and keeps the arcs ArcLiveAt reports live
// at T, each arc's own add/rem annotations deciding, as Section 4.2.2
// defines it.
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
}

// assert *doem.Database implements Graph.
var _ Graph = (*doem.Database)(nil)

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

// ValueAt implements Graph: without history, the value is constant.
func (g OEMGraph) ValueAt(n oem.NodeID, _ timestamp.Time) value.Value {
	v, _ := g.DB.Value(n)
	return v
}
