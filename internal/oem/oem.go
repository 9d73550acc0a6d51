// Package oem implements the Object Exchange Model (paper Section 2,
// Definition 2.1): a rooted directed graph whose nodes are objects and whose
// labeled arcs are object-subobject relationships. Atomic objects carry a
// value; complex objects (value C) carry outgoing arcs. Persistence is by
// reachability from the distinguished root.
//
// A Database keeps arcs in insertion order per parent so that traversals,
// query results and serializations are deterministic.
package oem

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/symbol"
	"repro/internal/value"
)

// NodeID identifies an object within one Database. IDs are allocated
// monotonically and never reused, matching the paper's Section 2.2
// assumption that identifiers of deleted nodes do not recur.
type NodeID uint64

// InvalidNode is the zero NodeID; no object ever has it.
const InvalidNode NodeID = 0

// String renders the id in the paper's "nK" style.
func (n NodeID) String() string { return fmt.Sprintf("n%d", uint64(n)) }

// Arc is a labeled directed arc (p, l, c): c is an l-labeled subobject of p.
type Arc struct {
	Parent NodeID
	Label  string
	Child  NodeID
}

// String renders the arc as (p, l, c).
func (a Arc) String() string {
	return fmt.Sprintf("(%s, %q, %s)", a.Parent, a.Label, a.Child)
}

// Database is an OEM database: the 4-tuple (N, A, v, r) of Definition 2.1.
//
// Concurrency: read methods (including Out/In, which return live slices
// callers must not modify) are pure lookups, so a Database is safe for
// concurrent readers once built; mutators must exclude them.
type Database struct {
	values map[NodeID]value.Value
	out    map[NodeID][]Arc // insertion-ordered outgoing arcs
	in     map[NodeID][]Arc // insertion-ordered incoming arcs
	nArcs  int
	root   NodeID
	nextID NodeID

	// swept records that a collection has run and every mutation since is
	// accounted for in suspects: the nodes that may have become unreachable
	// (children of removed arcs, nodes created since). While it holds, every
	// unreachable node is reachable from an unreachable suspect, so Collect
	// examines only the suspects' neighbourhood instead of walking the
	// whole graph (see collect.go).
	swept    bool
	suspects []NodeID
}

// Common database errors.
var (
	ErrNoSuchNode  = errors.New("oem: no such node")
	ErrNodeExists  = errors.New("oem: node already exists")
	ErrNotComplex  = errors.New("oem: node is not a complex object")
	ErrHasChildren = errors.New("oem: complex node still has subobjects")
	ErrArcExists   = errors.New("oem: arc already exists")
	ErrNoSuchArc   = errors.New("oem: no such arc")
	ErrEmptyLabel  = errors.New("oem: empty arc label")
)

// New creates a database containing only a complex root object.
func New() *Database {
	db := &Database{
		values: make(map[NodeID]value.Value),
		out:    make(map[NodeID][]Arc),
		in:     make(map[NodeID][]Arc),
		nextID: 1,
	}
	db.root = db.newNode(value.Complex())
	return db
}

func (db *Database) newNode(v value.Value) NodeID {
	id := db.nextID
	db.nextID++
	db.values[id] = v
	db.suspect(id)
	return id
}

// Root returns the distinguished root object.
func (db *Database) Root() NodeID { return db.root }

// Has reports whether node n exists.
func (db *Database) Has(n NodeID) bool {
	_, ok := db.values[n]
	return ok
}

// Value returns the value of node n. The boolean reports existence.
func (db *Database) Value(n NodeID) (value.Value, bool) {
	v, ok := db.values[n]
	return v, ok
}

// MustValue returns the value of node n, panicking if absent; for callers
// that hold an id they obtained from this database.
func (db *Database) MustValue(n NodeID) value.Value {
	v, ok := db.values[n]
	if !ok {
		panic(fmt.Sprintf("oem: MustValue(%s): no such node", n))
	}
	return v
}

// IsComplex reports whether n exists and is a complex object.
func (db *Database) IsComplex(n NodeID) bool {
	v, ok := db.values[n]
	return ok && v.IsComplex()
}

// NumNodes returns the number of objects.
func (db *Database) NumNodes() int { return len(db.values) }

// MaxID returns the id high-water mark: the largest id ever allocated in
// this database. It bounds every present id from above and equals the
// largest present id while no node has been collected (ids are never
// reused, so collected ids stay below it too).
func (db *Database) MaxID() NodeID { return db.nextID - 1 }

// NumArcs returns the number of arcs.
func (db *Database) NumArcs() int { return db.nArcs }

// Out returns the outgoing arcs of n in insertion order.
// The returned slice must not be modified.
func (db *Database) Out(n NodeID) []Arc { return db.out[n] }

// In returns the incoming arcs of n in insertion order.
// The returned slice must not be modified.
func (db *Database) In(n NodeID) []Arc { return db.in[n] }

// OutLabeled returns the l-labeled outgoing arcs of n in insertion order.
func (db *Database) OutLabeled(n NodeID, l string) []Arc {
	var arcs []Arc
	for _, a := range db.out[n] {
		if a.Label == l {
			arcs = append(arcs, a)
		}
	}
	return arcs
}

// HasArc reports whether the arc (p, l, c) exists. It scans the shorter of
// p's out-list and c's in-list.
func (db *Database) HasArc(p NodeID, l string, c NodeID) bool {
	arcs := db.out[p]
	if in := db.in[c]; len(in) < len(arcs) {
		arcs = in
	}
	a := Arc{p, l, c}
	for _, x := range arcs {
		if x == a {
			return true
		}
	}
	return false
}

// Arcs returns every arc, ordered by parent id then insertion order.
func (db *Database) Arcs() []Arc {
	parents := make([]NodeID, 0, len(db.out))
	for p := range db.out {
		if len(db.out[p]) > 0 {
			parents = append(parents, p)
		}
	}
	sort.Slice(parents, func(i, j int) bool { return parents[i] < parents[j] })
	arcs := make([]Arc, 0, db.nArcs)
	for _, p := range parents {
		arcs = append(arcs, db.out[p]...)
	}
	return arcs
}

// Nodes returns every node id in ascending order.
func (db *Database) Nodes() []NodeID {
	ids := make([]NodeID, 0, len(db.values))
	for id := range db.values {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// CreateNode performs the paper's creNode: it allocates a fresh object with
// the given initial value (atomic, or C for complex) and returns its id.
func (db *Database) CreateNode(v value.Value) NodeID {
	return db.newNode(v)
}

// CreateNodeWithID creates an object with a caller-chosen id, which must be
// fresh. It is used when replaying histories that mention explicit ids.
func (db *Database) CreateNodeWithID(n NodeID, v value.Value) error {
	if n == InvalidNode {
		return fmt.Errorf("%w: id 0 is reserved", ErrNodeExists)
	}
	if db.Has(n) {
		return fmt.Errorf("%w: %s", ErrNodeExists, n)
	}
	db.values[n] = v
	if n >= db.nextID {
		db.nextID = n + 1
	}
	db.suspect(n)
	return nil
}

// UpdateNode performs the paper's updNode: it changes the value of n.
// Per Section 2.1 the node must be atomic, or complex without subobjects.
func (db *Database) UpdateNode(n NodeID, v value.Value) error {
	old, ok := db.values[n]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchNode, n)
	}
	if old.IsComplex() && len(db.out[n]) > 0 {
		return fmt.Errorf("%w: %s", ErrHasChildren, n)
	}
	db.values[n] = v
	return nil
}

// AddArc performs the paper's addArc. Both endpoints must exist, the parent
// must be complex, and the arc must not already exist.
func (db *Database) AddArc(p NodeID, l string, c NodeID) error {
	if l == "" {
		return ErrEmptyLabel
	}
	// Canonicalize the label so every arc with the same label shares one
	// backing string, whatever decoder or caller produced it. Equality and
	// map keys are content-based, so callers never observe the swap.
	l = symbol.Canon(l)
	if !db.Has(p) {
		return fmt.Errorf("%w: parent %s", ErrNoSuchNode, p)
	}
	if !db.Has(c) {
		return fmt.Errorf("%w: child %s", ErrNoSuchNode, c)
	}
	if !db.IsComplex(p) {
		return fmt.Errorf("%w: %s", ErrNotComplex, p)
	}
	a := Arc{p, l, c}
	if db.HasArc(p, l, c) {
		return fmt.Errorf("%w: %s", ErrArcExists, a)
	}
	db.nArcs++
	db.out[p] = append(db.out[p], a)
	db.in[c] = append(db.in[c], a)
	return nil
}

// RemoveArc performs the paper's remArc. The arc must exist.
func (db *Database) RemoveArc(p NodeID, l string, c NodeID) error {
	a := Arc{p, l, c}
	if !db.HasArc(p, l, c) {
		return fmt.Errorf("%w: %s", ErrNoSuchArc, a)
	}
	db.nArcs--
	db.out[p] = removeArc(db.out[p], a)
	db.in[c] = removeArc(db.in[c], a)
	db.suspect(c)
	return nil
}

func removeArc(arcs []Arc, a Arc) []Arc {
	for i, x := range arcs {
		if x == a {
			return append(arcs[:i:i], arcs[i+1:]...)
		}
	}
	return arcs
}

// Reachable returns the set of nodes reachable from the root.
func (db *Database) Reachable() map[NodeID]bool {
	seen := make(map[NodeID]bool, len(db.values))
	stack := []NodeID{db.root}
	seen[db.root] = true
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range db.out[n] {
			if !seen[a.Child] {
				seen[a.Child] = true
				stack = append(stack, a.Child)
			}
		}
	}
	return seen
}

// Validate checks Definition 2.1's invariants: only complex nodes have
// outgoing arcs, arc endpoints exist, and every node is reachable from the
// root. It returns the first violation found.
func (db *Database) Validate() error {
	for _, arcs := range db.out {
		for _, a := range arcs {
			if !db.Has(a.Parent) || !db.Has(a.Child) {
				return fmt.Errorf("oem: dangling arc %s", a)
			}
			if !db.IsComplex(a.Parent) {
				return fmt.Errorf("oem: atomic node %s has outgoing arc %s", a.Parent, a)
			}
		}
	}
	live := db.Reachable()
	for id := range db.values {
		if !live[id] {
			return fmt.Errorf("oem: node %s unreachable from root", id)
		}
	}
	return nil
}

// Clone returns a deep copy of the database, preserving node ids and arc
// insertion order.
func (db *Database) Clone() *Database {
	c := &Database{
		values: make(map[NodeID]value.Value, len(db.values)),
		out:    make(map[NodeID][]Arc, len(db.out)),
		in:     make(map[NodeID][]Arc, len(db.in)),
		nArcs:  db.nArcs,
		root:   db.root,
		nextID: db.nextID,

		swept:    db.swept,
		suspects: append([]NodeID(nil), db.suspects...),
	}
	for id, v := range db.values {
		c.values[id] = v
	}
	for id, arcs := range db.out {
		if len(arcs) > 0 {
			c.out[id] = append([]Arc(nil), arcs...)
		}
	}
	for id, arcs := range db.in {
		if len(arcs) > 0 {
			c.in[id] = append([]Arc(nil), arcs...)
		}
	}
	return c
}

// Equal reports whether two databases are identical: same root, same node
// set with equal values, and same arc set. Arc order is not significant.
func (db *Database) Equal(other *Database) bool {
	if db.root != other.root || len(db.values) != len(other.values) || db.nArcs != other.nArcs {
		return false
	}
	for id, v := range db.values {
		ov, ok := other.values[id]
		if !ok || !v.Equal(ov) {
			return false
		}
	}
	for _, arcs := range db.out {
		for _, a := range arcs {
			if !other.HasArc(a.Parent, a.Label, a.Child) {
				return false
			}
		}
	}
	return true
}

// String renders a deterministic multi-line listing, useful in tests.
func (db *Database) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "oem root=%s nodes=%d arcs=%d\n", db.root, db.NumNodes(), db.NumArcs())
	for _, id := range db.Nodes() {
		fmt.Fprintf(&b, "  %s = %s\n", id, db.values[id])
		for _, a := range db.out[id] {
			fmt.Fprintf(&b, "    .%s -> %s\n", a.Label, a.Child)
		}
	}
	return b.String()
}
