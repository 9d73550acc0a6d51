// Package doem implements DOEM (Delta-OEM), the paper's change
// representation model (Section 3). A DOEM database is an OEM graph whose
// nodes and arcs carry annotations encoding the complete history of basic
// change operations:
//
//	cre(t)      node created at t
//	upd(t, ov)  node value updated at t; ov is the old value
//	add(t)      arc added at t
//	rem(t)      arc removed at t
//
// Removed arcs are never physically deleted — they simply carry a rem
// annotation — so a DOEM database faithfully stores the original snapshot,
// every intermediate snapshot, and the encoded history (Section 3.2).
package doem

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"repro/internal/change"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/plan"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// AnnotKind distinguishes the four annotation forms.
type AnnotKind uint8

// The annotation kinds.
const (
	AnnotCre AnnotKind = iota
	AnnotUpd
	AnnotAdd
	AnnotRem
)

// String returns the paper's keyword for the kind.
func (k AnnotKind) String() string {
	switch k {
	case AnnotCre:
		return "cre"
	case AnnotUpd:
		return "upd"
	case AnnotAdd:
		return "add"
	case AnnotRem:
		return "rem"
	default:
		return fmt.Sprintf("AnnotKind(%d)", uint8(k))
	}
}

// ArcAnnot is an add or rem annotation on an arc.
type ArcAnnot struct {
	Kind AnnotKind // AnnotAdd or AnnotRem
	At   timestamp.Time
}

// String renders the annotation in the paper's notation.
func (a ArcAnnot) String() string { return fmt.Sprintf("%s(%s)", a.Kind, a.At) }

// UpdInfo is one upd annotation together with the implicitly represented new
// value (paper Section 4.2: the new value is the old value of the next upd
// annotation, or the current value if none follows).
type UpdInfo struct {
	At  timestamp.Time
	Old value.Value
	New value.Value
}

// ArcEvent is one add or rem annotation on an l-labeled arc, paired with the
// arc's target; the shape returned by the paper's addFun/remFun.
type ArcEvent struct {
	At    timestamp.Time
	Child oem.NodeID
}

// Database is a DOEM database: the triple (O, f_N, f_A) of Definition 3.1.
//
// Internally it maintains the *current snapshot* as a live OEM database
// (so unannotated Chorel steps and polling reads are cheap) plus the full
// arc relation including removed arcs, the annotations, and the values of
// nodes that have been deleted from the current snapshot. f_N is the cre
// times and the upd chains; an arc is removed exactly when its last
// annotation is a rem.
//
// It also keeps its own access paths (paths.go): (node, label) buckets of
// both arc relations and planner statistics, which Commit updates with each
// operation it applies.
//
// Concurrency: read methods are pure lookups with no interior mutation, so
// a Database is safe for any number of concurrent readers once built.
// Apply mutates in place and must exclude readers (see
// lore.Store.ViewIndexed for the coordinated path); Truncate leaves the
// receiver untouched and returns a new database.
type Database struct {
	current *oem.Database
	// outAll holds every arc ever present, per parent, in insertion order.
	outAll map[oem.NodeID][]oem.Arc
	// deletedValues holds the final value of nodes removed from the current
	// snapshot by unreachability.
	deletedValues map[oem.NodeID]value.Value
	// cre holds each node's cre annotation, upds its upd annotations in
	// timestamp order, each with the new value it set.
	cre    map[oem.NodeID]timestamp.Time
	upds   map[oem.NodeID][]UpdInfo
	arcAnn map[oem.Arc][]ArcAnnot
	// steps records the timestamps of applied change sets, ascending.
	steps []timestamp.Time
	// version counts successful Apply calls; caches of query results over
	// the database compare it against the one they were built at.
	version uint64
	// maxID is the largest id among current and deleted nodes, maintained
	// by New and Apply so MaxID is a field read.
	maxID oem.NodeID

	// Access paths, built by index and kept up by Commit (paths.go).
	paths  map[pathKey]bucket
	labels map[string]plan.LabelCard
	annots int
}

// Version returns a counter that advances on every successful Apply.
// Readers holding the database's read lock (see lore.Store.ViewIndexed) see a
// stable value; the planner's cached plans key on it.
func (d *Database) Version() uint64 { return d.version }

// mGCFullWalks counts step-boundary collections that had to walk the whole
// current snapshot; in steady state collections follow the change set and
// this stays flat (docs/observability.md).
var mGCFullWalks = obs.NewCounter("doem_gc_full_walks_total")

// Errors returned by Apply.
var (
	ErrStaleTimestamp = errors.New("doem: timestamp not after last applied step")
	ErrDeletedNode    = errors.New("doem: operation references a deleted node")
	ErrReusedID       = errors.New("doem: node id of a deleted object reused")
)

// New returns a DOEM database over a copy of the given OEM snapshot with
// empty annotation sets — the D_0 of Section 3.1. The snapshot's node ids
// are preserved. The copy is collected first: an OEM database holds only
// what its root reaches (Section 2.2), and O_0(D) of a feasible D is
// collected, so an object nothing reaches is not part of D. That walk is
// the database's first collection, counted in doem_gc_full_walks_total.
func New(o *oem.Database) *Database {
	cur := o.Clone()
	if _, full := cur.Collect(nil); full {
		mGCFullWalks.Inc()
	}
	return wrap(cur)
}

// wrap is New over a snapshot the database takes ownership of.
func wrap(cur *oem.Database) *Database {
	d := &Database{
		current:       cur,
		outAll:        make(map[oem.NodeID][]oem.Arc),
		deletedValues: make(map[oem.NodeID]value.Value),
		cre:           make(map[oem.NodeID]timestamp.Time),
		upds:          make(map[oem.NodeID][]UpdInfo),
		arcAnn:        make(map[oem.Arc][]ArcAnnot),
	}
	for _, id := range cur.Nodes() {
		if arcs := cur.Out(id); len(arcs) > 0 {
			d.outAll[id] = append([]oem.Arc(nil), arcs...)
		}
		d.maxID = id // ascending: the last one is the largest
	}
	d.index()
	return d
}

// Clone returns a deep copy of the database, so a holder of either can
// apply changes without the other seeing them.
func (d *Database) Clone() *Database {
	c := &Database{
		current:       d.current.Clone(),
		outAll:        make(map[oem.NodeID][]oem.Arc, len(d.outAll)),
		deletedValues: maps.Clone(d.deletedValues),
		cre:           maps.Clone(d.cre),
		upds:          make(map[oem.NodeID][]UpdInfo, len(d.upds)),
		arcAnn:        make(map[oem.Arc][]ArcAnnot, len(d.arcAnn)),
		steps:         slices.Clone(d.steps),
		maxID:         d.maxID,
	}
	for n, arcs := range d.outAll {
		c.outAll[n] = slices.Clone(arcs)
	}
	for n, ups := range d.upds {
		c.upds[n] = slices.Clone(ups)
	}
	for a, anns := range d.arcAnn {
		c.arcAnn[a] = slices.Clone(anns)
	}
	c.index()
	return c
}

// FromHistory constructs D(O, H) per Section 3.1: it starts from O with
// empty annotations and applies every step of h, annotating as it goes.
// O itself is not modified. The first step Apply refuses is reported as
// change.ErrInvalidHistory with its index.
func FromHistory(o *oem.Database, h change.History) (*Database, error) {
	return replay(New(o), h)
}

// replay applies every step of h to d.
func replay(d *Database, h change.History) (*Database, error) {
	for i, step := range h {
		if err := d.Apply(step.At, step.Ops); err != nil {
			return nil, fmt.Errorf("%w: step %d at %s: %w", change.ErrInvalidHistory, i, step.At, err)
		}
	}
	return d, nil
}

// Root returns the root object id.
func (d *Database) Root() oem.NodeID { return d.current.Root() }

// Current returns the current snapshot. The returned database is live —
// callers must not modify it; use Apply.
func (d *Database) Current() *oem.Database { return d.current }

// LastStep returns the timestamp of the most recently applied step, or
// timestamp.NegInf if none.
func (d *Database) LastStep() timestamp.Time {
	if len(d.steps) == 0 {
		return timestamp.NegInf
	}
	return d.steps[len(d.steps)-1]
}

// Steps returns the timestamps of all applied steps, ascending.
func (d *Database) Steps() []timestamp.Time {
	return append([]timestamp.Time(nil), d.steps...)
}

// Has reports whether node n exists anywhere in the DOEM graph (including
// nodes deleted from the current snapshot).
func (d *Database) Has(n oem.NodeID) bool {
	if d.current.Has(n) {
		return true
	}
	_, ok := d.deletedValues[n]
	return ok
}

// Value returns the current (final) value of n, looking through to deleted
// nodes.
func (d *Database) Value(n oem.NodeID) (value.Value, bool) {
	if v, ok := d.current.Value(n); ok {
		return v, ok
	}
	v, ok := d.deletedValues[n]
	return v, ok
}

// Out returns the arcs of n in the current snapshot.
func (d *Database) Out(n oem.NodeID) []oem.Arc { return d.current.Out(n) }

// OutAll returns every arc ever attached to n, including removed arcs,
// in insertion order. The slice must not be modified.
func (d *Database) OutAll(n oem.NodeID) []oem.Arc { return d.outAll[n] }

// ArcAnnots returns the annotations on arc a in timestamp order.
func (d *Database) ArcAnnots(a oem.Arc) []ArcAnnot { return d.arcAnn[a] }

// ArcAnnotsIn returns the annotations on arc a whose time lies in the
// closed window [from, to], in timestamp order. The slice is the
// database's own and must not be modified.
func (d *Database) ArcAnnotsIn(a oem.Arc, from, to timestamp.Time) []ArcAnnot {
	anns := d.arcAnn[a]
	lo := sort.Search(len(anns), func(i int) bool { return !anns[i].At.Before(from) })
	hi := sort.Search(len(anns), func(i int) bool { return anns[i].At.After(to) })
	return anns[lo:max(lo, hi)]
}

// CreTime implements the paper's creFun: the creation timestamp of n, if n
// carries a cre annotation.
func (d *Database) CreTime(n oem.NodeID) (timestamp.Time, bool) {
	t, ok := d.cre[n]
	return t, ok
}

// UpdTriples implements the paper's updFun: the (time, old, new) triples of
// n's upd annotations, in timestamp order. The new value of each update is
// the old value of the next one; the final update's new value is the
// node's current value. The slice is the database's own and must not be
// modified.
func (d *Database) UpdTriples(n oem.NodeID) []UpdInfo { return d.upds[n] }

// UpdTriplesIn returns the triples of UpdTriples(n) whose time lies in the
// closed window [from, to]. Each keeps its new value, so the last one's is
// n's value at to. The slice is the database's own and must not be
// modified.
func (d *Database) UpdTriplesIn(n oem.NodeID, from, to timestamp.Time) []UpdInfo {
	ups := d.upds[n]
	lo := sort.Search(len(ups), func(i int) bool { return !ups[i].At.Before(from) })
	hi := sort.Search(len(ups), func(i int) bool { return ups[i].At.After(to) })
	return ups[lo:max(lo, hi)]
}

// AddEvents implements the paper's addFun(n, l): (t, c) pairs such that the
// arc (n, l, c) carries an add(t) annotation.
func (d *Database) AddEvents(n oem.NodeID, label string) []ArcEvent {
	return d.arcEvents(n, label, AnnotAdd)
}

// RemEvents implements the paper's remFun(n, l).
func (d *Database) RemEvents(n oem.NodeID, label string) []ArcEvent {
	return d.arcEvents(n, label, AnnotRem)
}

func (d *Database) arcEvents(n oem.NodeID, label string, kind AnnotKind) []ArcEvent {
	var evs []ArcEvent
	for _, arc := range d.outAll[n] {
		if arc.Label != label {
			continue
		}
		for _, a := range d.arcAnn[arc] {
			if a.Kind == kind {
				evs = append(evs, ArcEvent{At: a.At, Child: arc.Child})
			}
		}
	}
	return evs
}

// Apply incorporates one history step (t, ops) into the DOEM database:
// it applies the operations to the current snapshot and attaches the
// corresponding annotations (Section 3.1). The timestamp must be finite and
// strictly after the last applied step, and the operations must not touch
// deleted nodes or reuse their ids. Apply is Check followed by Commit.
func (d *Database) Apply(t timestamp.Time, ops change.Set) error {
	if err := d.Check(t, ops); err != nil {
		return err
	}
	d.Commit(t, ops)
	return nil
}

// Check reports whether Apply(t, ops) would succeed, without changing the
// database. A write-ahead caller checks, makes the step durable, and only
// then commits it.
func (d *Database) Check(t timestamp.Time, ops change.Set) error {
	if !t.IsFinite() {
		return fmt.Errorf("%w: %s", ErrStaleTimestamp, t)
	}
	if t.Compare(d.LastStep()) <= 0 {
		return fmt.Errorf("%w: %s <= %s", ErrStaleTimestamp, t, d.LastStep())
	}
	// Deleted-node discipline (paper Section 2.2).
	for _, op := range ops {
		switch o := op.(type) {
		case change.CreNode:
			if _, dead := d.deletedValues[o.Node]; dead {
				return fmt.Errorf("%w: %s", ErrReusedID, o.Node)
			}
		case change.UpdNode:
			if _, dead := d.deletedValues[o.Node]; dead {
				return fmt.Errorf("%w: %s", ErrDeletedNode, op)
			}
		case change.AddArc:
			if d.isDeleted(o.Parent) || d.isDeleted(o.Child) {
				return fmt.Errorf("%w: %s", ErrDeletedNode, op)
			}
		case change.RemArc:
			if d.isDeleted(o.Parent) || d.isDeleted(o.Child) {
				return fmt.Errorf("%w: %s", ErrDeletedNode, op)
			}
		}
	}
	return ops.Validate(d.current)
}

// Commit applies a step that Check accepted; nothing may change the
// database between the two calls. It panics on a step Check would refuse.
func (d *Database) Commit(t timestamp.Time, ops change.Set) {
	// Record old values for upd annotations before mutating. Validate has
	// ruled out cre+upd of one node in a single set, so every updated
	// node already exists in the pre-step snapshot; together with the
	// canonical application order below this makes the attached
	// annotations independent of the set's input order (Def. 2.2 — see
	// TestApplyOrderIndependence).
	oldValues := make(map[oem.NodeID]value.Value)
	for _, op := range ops {
		if u, ok := op.(change.UpdNode); ok {
			v, _ := d.current.Value(u.Node)
			oldValues[u.Node] = v
		}
	}
	// Apply in canonical order, attaching annotations as the paper's
	// construction does. Check's Validate has already established that
	// every operation will succeed.
	for _, op := range ops.Canonical() {
		if err := op.Apply(d.current); err != nil {
			// Unreachable after a successful Check; fail loudly if the
			// invariant is ever broken.
			panic(fmt.Sprintf("doem: validated op failed: %s: %v", op, err))
		}
		switch o := op.(type) {
		case change.CreNode:
			d.cre[o.Node] = t
			if o.Node > d.maxID {
				d.maxID = o.Node
			}
		case change.UpdNode:
			v, _ := d.current.Value(o.Node)
			d.upds[o.Node] = append(d.upds[o.Node], UpdInfo{At: t, Old: oldValues[o.Node], New: v})
		case change.AddArc:
			// Canonicalize labels so the full-arc relation, the annotation
			// maps and the current snapshot (whose AddArc canonicalizes the
			// same way) all share one backing string per distinct label.
			arc := oem.Arc{Parent: o.Parent, Label: symbol.Canon(o.Label), Child: o.Child}
			k := keyOf(arc)
			if !d.ArcLiveAt(arc, timestamp.PosInf) {
				d.addPath(k, arc, false) // re-added after a removal
			} else if !slices.Contains(d.paths[k].all, arc) {
				d.outAll[o.Parent] = append(d.outAll[o.Parent], arc)
				d.addPath(k, arc, true)
			}
			d.arcAnn[arc] = append(d.arcAnn[arc], ArcAnnot{Kind: AnnotAdd, At: t})
		case change.RemArc:
			arc := oem.Arc{Parent: o.Parent, Label: symbol.Canon(o.Label), Child: o.Child}
			d.cutPath(keyOf(arc), &arc)
			d.arcAnn[arc] = append(d.arcAnn[arc], ArcAnnot{Kind: AnnotRem, At: t})
		}
	}
	d.annots += len(ops)
	// Nodes that became unreachable are deleted from the current snapshot
	// (paper Section 2.2) but remain in the DOEM graph, still reachable
	// through rem-annotated arcs; their final values are captured as the
	// collection drops them. The collection is skipped when the step cannot
	// have orphaned anything, and otherwise examines only what the step's
	// removals and creations could have cut loose (oem.Database.Collect).
	// A collected node takes the arcs it still held out of the current
	// relation; they stay in the full one.
	if ops.NeedsCollection(d.current) {
		collected, full := d.current.Collect(func(id oem.NodeID, v value.Value) {
			d.deletedValues[id] = v
		})
		if full {
			mGCFullWalks.Inc()
		}
		for _, n := range collected {
			for _, a := range d.outAll[n] {
				d.cutPath(keyOf(a), nil)
			}
		}
	}
	d.steps = append(d.steps, t)
	d.version++
}

func (d *Database) isDeleted(n oem.NodeID) bool {
	_, dead := d.deletedValues[n]
	return dead
}

// SnapshotAt materializes O_t(D), the snapshot at time t (Section 3.2).
// Node ids are preserved; nodes unreachable at t are absent. SnapshotAt
// with t = timestamp.NegInf yields the original snapshot O_0(D).
func (d *Database) SnapshotAt(t timestamp.Time) *oem.Database {
	out := oem.New()
	if out.Root() != d.Root() {
		panic("doem: root id mismatch in snapshot materialization")
	}
	// The root has no arcs yet, so any value it had at t is accepted.
	if err := out.UpdateNode(out.Root(), d.ValueAt(d.Root(), t)); err != nil {
		panic(fmt.Sprintf("doem: snapshot root: %v", err))
	}
	// Create every node ever, with its value at time t.
	ids := d.AllNodeIDs()
	for _, id := range ids {
		if id == d.Root() {
			continue
		}
		if err := out.CreateNodeWithID(id, d.ValueAt(id, t)); err != nil {
			panic(fmt.Sprintf("doem: snapshot node %s: %v", id, err))
		}
	}
	// Add arcs live at time t.
	for _, id := range ids {
		for _, arc := range d.outAll[id] {
			if d.ArcLiveAt(arc, t) {
				if err := out.AddArc(arc.Parent, arc.Label, arc.Child); err != nil {
					panic(fmt.Sprintf("doem: snapshot arc %s: %v", arc, err))
				}
			}
		}
	}
	out.GarbageCollect()
	return out
}

// Original returns O_0(D), the snapshot before the first recorded change.
func (d *Database) Original() *oem.Database { return d.SnapshotAt(timestamp.NegInf) }

// AllNodeIDs returns the ids of every node ever present in the database —
// current nodes plus nodes deleted by unreachability — in ascending order.
func (d *Database) AllNodeIDs() []oem.NodeID {
	seen := make(map[oem.NodeID]bool)
	var ids []oem.NodeID
	for _, id := range d.current.Nodes() {
		seen[id] = true
		ids = append(ids, id)
	}
	for id := range d.deletedValues {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// ValueAt returns the value of node n at time t per the paper's rule:
// if the latest upd annotation is at or before t (or there are none), the
// current value; otherwise the old value of the earliest upd after t.
func (d *Database) ValueAt(n oem.NodeID, t timestamp.Time) value.Value {
	ups := d.upds[n]
	if i := sort.Search(len(ups), func(i int) bool { return ups[i].At.After(t) }); i < len(ups) {
		return ups[i].Old
	}
	cur, _ := d.Value(n)
	return cur
}

// ArcLiveAt reports whether arc a existed at time t. An arc existed in O_0
// iff it carries no annotations or its earliest annotation is rem; add/rem
// annotations with timestamps <= t then toggle its existence, so the
// latest of them decides.
func (d *Database) ArcLiveAt(a oem.Arc, t timestamp.Time) bool {
	anns := d.arcAnn[a]
	k := sort.Search(len(anns), func(i int) bool { return anns[i].At.After(t) })
	if k == 0 {
		return len(anns) == 0 || anns[0].Kind == AnnotRem
	}
	return anns[k-1].Kind == AnnotAdd
}

// ExtractHistory recovers the encoded history H(D) per Section 3.2: one
// step per distinct annotation timestamp, containing the corresponding
// basic change operations.
func (d *Database) ExtractHistory() change.History {
	if d.annots == 0 {
		return change.History{}
	}
	byTime := make(map[timestamp.Time]*change.Set)
	var times []timestamp.Time
	stepFor := func(t timestamp.Time) *change.Set {
		if s, ok := byTime[t]; ok {
			return s
		}
		s := &change.Set{}
		byTime[t] = s
		times = append(times, t)
		return s
	}
	ids := d.AllNodeIDs()
	for _, id := range ids {
		if t, ok := d.cre[id]; ok {
			// The created value is the node's value just after creation:
			// the old value of the first upd, or the current value.
			s := stepFor(t)
			*s = append(*s, change.CreNode{Node: id, Value: d.ValueAt(id, t)})
		}
		for _, u := range d.upds[id] {
			s := stepFor(u.At)
			*s = append(*s, change.UpdNode{Node: id, Value: u.New})
		}
	}
	for _, id := range ids {
		for _, arc := range d.outAll[id] {
			for _, a := range d.arcAnn[arc] {
				s := stepFor(a.At)
				switch a.Kind {
				case AnnotAdd:
					*s = append(*s, change.AddArc{Parent: arc.Parent, Label: arc.Label, Child: arc.Child})
				case AnnotRem:
					*s = append(*s, change.RemArc{Parent: arc.Parent, Label: arc.Label, Child: arc.Child})
				}
			}
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i].Before(times[j]) })
	h := make(change.History, 0, len(times))
	for _, t := range times {
		h = append(h, change.Step{At: t, Ops: *byTime[t]})
	}
	return h
}

// Truncate returns a new DOEM database whose history up to and including t
// is collapsed into the base snapshot: the snapshot at t becomes the new
// O_0 and only annotations after t survive. Node ids are preserved. This is
// the paper's Section 6.1 space-for-accuracy trade ("storing a smaller
// state at the expense of not being able to detect all changes"):
// queries about instants at or before t see the collapsed state.
func (d *Database) Truncate(t timestamp.Time) (*Database, error) {
	base := d.SnapshotAt(t)
	var h change.History
	for _, step := range d.ExtractHistory() {
		if step.At.After(t) {
			h = append(h, step)
		}
	}
	return FromHistory(base, h)
}

// Feasible reports whether D = D(O_0(D), H(D)) — i.e. whether this DOEM
// database is one that some OEM database and valid history produce
// (Section 3.2).
func (d *Database) Feasible() bool {
	o0 := d.Original()
	h := d.ExtractHistory()
	rebuilt, err := FromHistory(o0, h)
	if err != nil {
		return false
	}
	return d.Equal(rebuilt)
}

// Equal reports whether two DOEM databases are identical: equal current
// snapshots, equal full arc relations with equal annotation sequences, and
// equal node annotation sequences.
func (d *Database) Equal(other *Database) bool {
	if !d.current.Equal(other.current) {
		return false
	}
	if len(d.cre) != len(other.cre) || len(d.upds) != len(other.upds) || len(d.arcAnn) != len(other.arcAnn) {
		return false
	}
	for n, t := range d.cre {
		if ot, ok := other.cre[n]; !ok || !t.Equal(ot) {
			return false
		}
	}
	for n, ups := range d.upds {
		o := other.upds[n]
		if len(o) != len(ups) {
			return false
		}
		for i := range ups {
			if !ups[i].At.Equal(o[i].At) || !ups[i].Old.Equal(o[i].Old) || !ups[i].New.Equal(o[i].New) {
				return false
			}
		}
	}
	for a, anns := range d.arcAnn {
		o := other.arcAnn[a]
		if len(o) != len(anns) {
			return false
		}
		for i := range anns {
			if anns[i] != o[i] {
				return false
			}
		}
	}
	for n, v := range d.deletedValues {
		ov, ok := other.deletedValues[n]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	return len(d.deletedValues) == len(other.deletedValues)
}

// MaxID returns the largest node id ever used in the database (including
// nodes deleted from the current snapshot). Id allocators for change
// scripts must stay above it, since ids are never reused.
func (d *Database) MaxID() oem.NodeID { return d.maxID }

// NumAnnotations returns the total count of node and arc annotations.
func (d *Database) NumAnnotations() int { return d.annots }

// String renders a deterministic listing with annotations, in the spirit of
// Figure 4.
func (d *Database) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "doem root=%s steps=%d annotations=%d\n", d.Root(), len(d.steps), d.NumAnnotations())
	for _, id := range d.AllNodeIDs() {
		v, _ := d.Value(id)
		fmt.Fprintf(&b, "  %s = %s", id, v)
		if t, ok := d.cre[id]; ok {
			fmt.Fprintf(&b, " [cre(%s)]", t)
		}
		for _, u := range d.upds[id] {
			fmt.Fprintf(&b, " [upd(%s, %s)]", u.At, u.Old)
		}
		if d.isDeleted(id) {
			b.WriteString(" (deleted)")
		}
		b.WriteString("\n")
		for _, arc := range d.outAll[id] {
			fmt.Fprintf(&b, "    .%s -> %s", arc.Label, arc.Child)
			for _, a := range d.arcAnn[arc] {
				fmt.Fprintf(&b, " [%s]", a)
			}
			if !d.ArcLiveAt(arc, timestamp.PosInf) {
				b.WriteString(" (removed)")
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}
