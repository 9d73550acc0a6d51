// Package change implements the paper's basic change operations on OEM
// databases (Section 2.1), sets of operations with order-independence
// semantics, and OEM histories (Section 2.2, Definition 2.2).
package change

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// Op is one of the four basic change operations: creNode, updNode, addArc,
// remArc.
type Op interface {
	// Validate reports whether the operation can be applied to db.
	Validate(db *oem.Database) error
	// Apply performs the operation on db. It validates first.
	Apply(db *oem.Database) error
	// String renders the operation in the paper's notation.
	String() string
	// kindRank orders operations in the canonical application order
	// creNode < remArc < updNode < addArc (see Set.Validate).
	kindRank() int
}

// CreNode is the paper's creNode(n, v): create object n with initial value v.
type CreNode struct {
	Node  oem.NodeID
	Value value.Value
}

// UpdNode is the paper's updNode(n, v): change the value of object n to v.
type UpdNode struct {
	Node  oem.NodeID
	Value value.Value
}

// AddArc is the paper's addArc(p, l, c).
type AddArc struct {
	Parent oem.NodeID
	Label  string
	Child  oem.NodeID
}

// RemArc is the paper's remArc(p, l, c).
type RemArc struct {
	Parent oem.NodeID
	Label  string
	Child  oem.NodeID
}

func (o CreNode) String() string {
	return fmt.Sprintf("creNode(%s, %s)", o.Node, o.Value)
}

func (o UpdNode) String() string {
	return fmt.Sprintf("updNode(%s, %s)", o.Node, o.Value)
}

func (o AddArc) String() string {
	return fmt.Sprintf("addArc(%s, %q, %s)", o.Parent, o.Label, o.Child)
}

func (o RemArc) String() string {
	return fmt.Sprintf("remArc(%s, %q, %s)", o.Parent, o.Label, o.Child)
}

func (CreNode) kindRank() int { return 0 }
func (RemArc) kindRank() int  { return 1 }
func (UpdNode) kindRank() int { return 2 }
func (AddArc) kindRank() int  { return 3 }

// Validate for CreNode: the id must be fresh.
func (o CreNode) Validate(db *oem.Database) error {
	if o.Node == oem.InvalidNode {
		return errors.New("change: creNode with reserved id 0")
	}
	if db.Has(o.Node) {
		return fmt.Errorf("change: creNode(%s): %w", o.Node, oem.ErrNodeExists)
	}
	return nil
}

// Apply for CreNode.
func (o CreNode) Apply(db *oem.Database) error {
	if err := o.Validate(db); err != nil {
		return err
	}
	return db.CreateNodeWithID(o.Node, o.Value)
}

// Validate for UpdNode: node exists and is atomic or childless complex.
func (o UpdNode) Validate(db *oem.Database) error {
	v, ok := db.Value(o.Node)
	if !ok {
		return fmt.Errorf("change: updNode(%s): %w", o.Node, oem.ErrNoSuchNode)
	}
	if v.IsComplex() && len(db.Out(o.Node)) > 0 {
		return fmt.Errorf("change: updNode(%s): %w", o.Node, oem.ErrHasChildren)
	}
	return nil
}

// Apply for UpdNode.
func (o UpdNode) Apply(db *oem.Database) error {
	if err := o.Validate(db); err != nil {
		return err
	}
	return db.UpdateNode(o.Node, o.Value)
}

// Validate for AddArc.
func (o AddArc) Validate(db *oem.Database) error {
	if o.Label == "" {
		return fmt.Errorf("change: addArc: %w", oem.ErrEmptyLabel)
	}
	if !db.Has(o.Parent) {
		return fmt.Errorf("change: addArc parent %s: %w", o.Parent, oem.ErrNoSuchNode)
	}
	if !db.Has(o.Child) {
		return fmt.Errorf("change: addArc child %s: %w", o.Child, oem.ErrNoSuchNode)
	}
	if !db.IsComplex(o.Parent) {
		return fmt.Errorf("change: addArc(%s): %w", o.Parent, oem.ErrNotComplex)
	}
	if db.HasArc(o.Parent, o.Label, o.Child) {
		return fmt.Errorf("change: %s: %w", o, oem.ErrArcExists)
	}
	return nil
}

// Apply for AddArc.
func (o AddArc) Apply(db *oem.Database) error {
	if err := o.Validate(db); err != nil {
		return err
	}
	return db.AddArc(o.Parent, o.Label, o.Child)
}

// Validate for RemArc.
func (o RemArc) Validate(db *oem.Database) error {
	if !db.HasArc(o.Parent, o.Label, o.Child) {
		return fmt.Errorf("change: remArc(%s, %q, %s): %w", o.Parent, o.Label, o.Child, oem.ErrNoSuchArc)
	}
	return nil
}

// Apply for RemArc.
func (o RemArc) Apply(db *oem.Database) error {
	if err := o.Validate(db); err != nil {
		return err
	}
	return db.RemoveArc(o.Parent, o.Label, o.Child)
}

// Set is a set of basic change operations applied "at once" (one history
// step). Validity follows the paper's definition: some ordering must be a
// valid sequence, all valid orderings must agree, and the set must not
// contain both addArc(p,l,c) and remArc(p,l,c).
type Set []Op

// ErrInvalidSet wraps all set-validity violations.
var ErrInvalidSet = errors.New("change: invalid operation set")

// Canonical returns the operations in the canonical application order:
// creNode, remArc, updNode, addArc; ties broken by operand ids for
// determinism. See doc.go for why this order realizes every valid set.
func (s Set) Canonical() []Op {
	// Render each tie-break key once: comparing by String() inside the
	// sort would format two operations per comparison.
	c := canonical{ops: append([]Op(nil), s...), keys: make([]string, len(s))}
	for i, op := range c.ops {
		c.keys[i] = op.String()
	}
	sort.Stable(c)
	return c.ops
}

// canonical sorts operations by kind rank, then rendered form.
type canonical struct {
	ops  []Op
	keys []string
}

func (c canonical) Len() int { return len(c.ops) }
func (c canonical) Less(i, j int) bool {
	if ri, rj := c.ops[i].kindRank(), c.ops[j].kindRank(); ri != rj {
		return ri < rj
	}
	return c.keys[i] < c.keys[j]
}
func (c canonical) Swap(i, j int) {
	c.ops[i], c.ops[j] = c.ops[j], c.ops[i]
	c.keys[i], c.keys[j] = c.keys[j], c.keys[i]
}

// Validate checks the set against db per the paper's three conditions.
// It does not modify db. Validation simulates the canonical application
// order against a small overlay of the set's own effects, so its cost is
// O(|set|), independent of the database size.
func (s Set) Validate(db *oem.Database) error {
	if err := s.checkCommutativity(); err != nil {
		return err
	}
	// Overlay state accumulated in canonical order
	// (creNode -> remArc -> updNode -> addArc).
	created := make(map[oem.NodeID]value.Value)
	updated := make(map[oem.NodeID]value.Value)
	addedArcs := make(map[oem.Arc]bool)
	removedArcs := make(map[oem.Arc]bool)
	outDelta := make(map[oem.NodeID]int) // net arc-count change per parent

	exists := func(n oem.NodeID) bool {
		if _, ok := created[n]; ok {
			return true
		}
		return db.Has(n)
	}
	valueOf := func(n oem.NodeID) (value.Value, bool) {
		if v, ok := updated[n]; ok {
			return v, true
		}
		if v, ok := created[n]; ok {
			return v, true
		}
		return db.Value(n)
	}
	outCount := func(n oem.NodeID) int {
		return len(db.Out(n)) + outDelta[n]
	}

	for _, op := range s.Canonical() {
		switch o := op.(type) {
		case CreNode:
			if o.Node == oem.InvalidNode {
				return fmt.Errorf("%w: %s: reserved id 0", ErrInvalidSet, o)
			}
			if exists(o.Node) {
				return fmt.Errorf("%w: %s: %v", ErrInvalidSet, o, oem.ErrNodeExists)
			}
			created[o.Node] = o.Value
		case RemArc:
			arc := oem.Arc{Parent: o.Parent, Label: o.Label, Child: o.Child}
			// Rule (3) bans add+rem of one arc, so a removable arc must
			// pre-exist in db.
			if !db.HasArc(o.Parent, o.Label, o.Child) || removedArcs[arc] {
				return fmt.Errorf("%w: %s: %v", ErrInvalidSet, o, oem.ErrNoSuchArc)
			}
			removedArcs[arc] = true
			outDelta[o.Parent]--
		case UpdNode:
			v, ok := valueOf(o.Node)
			if !ok {
				return fmt.Errorf("%w: %s: %v", ErrInvalidSet, o, oem.ErrNoSuchNode)
			}
			if v.IsComplex() && outCount(o.Node) > 0 {
				return fmt.Errorf("%w: %s: %v", ErrInvalidSet, o, oem.ErrHasChildren)
			}
			updated[o.Node] = o.Value
		case AddArc:
			if o.Label == "" {
				return fmt.Errorf("%w: %s: %v", ErrInvalidSet, o, oem.ErrEmptyLabel)
			}
			if !exists(o.Parent) {
				return fmt.Errorf("%w: %s: parent: %v", ErrInvalidSet, o, oem.ErrNoSuchNode)
			}
			if !exists(o.Child) {
				return fmt.Errorf("%w: %s: child: %v", ErrInvalidSet, o, oem.ErrNoSuchNode)
			}
			if v, _ := valueOf(o.Parent); !v.IsComplex() {
				return fmt.Errorf("%w: %s: %v", ErrInvalidSet, o, oem.ErrNotComplex)
			}
			arc := oem.Arc{Parent: o.Parent, Label: o.Label, Child: o.Child}
			// Rule (3) bans re-adding an arc removed in this set, and
			// checkCommutativity bans duplicates, so presence in either db
			// or the overlay is an error.
			if db.HasArc(o.Parent, o.Label, o.Child) || addedArcs[arc] {
				return fmt.Errorf("%w: %s: %v", ErrInvalidSet, o, oem.ErrArcExists)
			}
			addedArcs[arc] = true
			outDelta[o.Parent]++
		}
	}
	return nil
}

// checkCommutativity rejects op combinations whose valid orderings could
// disagree, plus the paper's explicit add+rem prohibition (condition 3).
func (s Set) checkCommutativity() error {
	type arcKey struct {
		p, c oem.NodeID
		l    string
	}
	adds := make(map[arcKey]bool)
	rems := make(map[arcKey]bool)
	upds := make(map[oem.NodeID]bool)
	cres := make(map[oem.NodeID]bool)
	for _, op := range s {
		switch o := op.(type) {
		case AddArc:
			k := arcKey{o.Parent, o.Child, o.Label}
			if adds[k] {
				return fmt.Errorf("%w: duplicate %s", ErrInvalidSet, o)
			}
			adds[k] = true
		case RemArc:
			k := arcKey{o.Parent, o.Child, o.Label}
			if rems[k] {
				return fmt.Errorf("%w: duplicate %s", ErrInvalidSet, o)
			}
			rems[k] = true
		case UpdNode:
			if upds[o.Node] {
				return fmt.Errorf("%w: two updNode operations on %s", ErrInvalidSet, o.Node)
			}
			upds[o.Node] = true
		case CreNode:
			if cres[o.Node] {
				return fmt.Errorf("%w: duplicate creNode(%s)", ErrInvalidSet, o.Node)
			}
			cres[o.Node] = true
		}
	}
	for k := range adds {
		if rems[k] {
			return fmt.Errorf("%w: both addArc and remArc of (%s, %q, %s)", ErrInvalidSet, k.p, k.l, k.c)
		}
	}
	// Creating and updating the same node in one atomic step is redundant
	// (create with the final value instead) and would make the DOEM
	// annotation trail ambiguous — a cre and an upd at the same timestamp.
	// We reject it to keep the representation canonical.
	for n := range cres {
		if upds[n] {
			return fmt.Errorf("%w: both creNode and updNode of %s", ErrInvalidSet, n)
		}
	}
	return nil
}

// Apply validates the set and applies it to db in canonical order, then
// garbage-collects nodes left unreachable (the paper's deletion by
// unreachability at step boundaries). It returns the deleted node ids.
func (s Set) Apply(db *oem.Database) ([]oem.NodeID, error) {
	if err := s.Validate(db); err != nil {
		return nil, err
	}
	for _, op := range s.Canonical() {
		if err := op.Apply(db); err != nil {
			// Unreachable when Validate is correct (the overlay simulation
			// mirrors Apply exactly; see TestValidateMatchesReference).
			return nil, err
		}
	}
	if !s.NeedsCollection(db) {
		return nil, nil
	}
	return db.GarbageCollect(), nil
}

// NeedsCollection reports whether applying this set can have left nodes
// unreachable, making the step-boundary garbage collection necessary:
// only arc removals can disconnect existing nodes, and only creations can
// introduce unreachable nodes — those that no chain of arcs through this
// step's creations connects to a node that existed before it (an island
// a <-> b has in-arcs, yet nothing reaches it). Called after the
// operations have been applied to db.
func (s Set) NeedsCollection(db *oem.Database) bool {
	var created map[oem.NodeID]bool
	for _, op := range s {
		switch o := op.(type) {
		case RemArc:
			return true
		case CreNode:
			if created == nil {
				created = make(map[oem.NodeID]bool)
			}
			created[o.Node] = false
		}
	}
	// Mark the creations reached from an older node, then what they reach.
	var stack []oem.NodeID
	for n := range created {
		for _, a := range db.In(n) {
			if _, fresh := created[a.Parent]; !fresh {
				created[n] = true
				stack = append(stack, n)
				break
			}
		}
	}
	reached := len(stack)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range db.Out(n) {
			if r, fresh := created[a.Child]; fresh && !r {
				created[a.Child] = true
				reached++
				stack = append(stack, a.Child)
			}
		}
	}
	return reached < len(created)
}

// String lists the set in canonical order, one operation per line.
func (s Set) String() string {
	var b strings.Builder
	for i, op := range s.Canonical() {
		if i > 0 {
			b.WriteString("; ")
		}
		b.WriteString(op.String())
	}
	return b.String()
}

// Step is one element (t_i, U_i) of a history.
type Step struct {
	At  timestamp.Time
	Ops Set
}

// History is the paper's OEM history: a sequence of timestamped operation
// sets with strictly increasing, finite timestamps.
type History []Step

// ErrInvalidHistory wraps history-validity violations.
var ErrInvalidHistory = errors.New("change: invalid history")

// Validate checks Definition 2.2: strictly increasing finite timestamps and
// each set valid for the state produced by its predecessors. It also
// enforces that no step operates on a node deleted (made unreachable) by an
// earlier step. db is not modified.
func (h History) Validate(db *oem.Database) error {
	scratch := db.Clone()
	return h.replay(scratch)
}

// Apply validates h against db and then applies every step in place.
func (h History) Apply(db *oem.Database) error {
	if err := h.Validate(db); err != nil {
		return err
	}
	return h.replay(db)
}

func (h History) replay(db *oem.Database) error {
	prev := timestamp.NegInf
	deleted := make(map[oem.NodeID]bool)
	for i, step := range h {
		if !step.At.IsFinite() {
			return fmt.Errorf("%w: step %d has non-finite timestamp", ErrInvalidHistory, i)
		}
		if step.At.Compare(prev) <= 0 {
			return fmt.Errorf("%w: step %d timestamp %s not after %s", ErrInvalidHistory, i, step.At, prev)
		}
		prev = step.At
		for _, op := range step.Ops {
			for _, n := range opNodes(op) {
				if deleted[n] {
					return fmt.Errorf("%w: step %d (%s) references deleted node %s", ErrInvalidHistory, i, op, n)
				}
			}
		}
		dead, err := step.Ops.Apply(db)
		if err != nil {
			return fmt.Errorf("%w: step %d at %s: %v", ErrInvalidHistory, i, step.At, err)
		}
		for _, n := range dead {
			deleted[n] = true
		}
	}
	return nil
}

func opNodes(op Op) []oem.NodeID {
	switch o := op.(type) {
	case CreNode:
		return []oem.NodeID{o.Node}
	case UpdNode:
		return []oem.NodeID{o.Node}
	case AddArc:
		return []oem.NodeID{o.Parent, o.Child}
	case RemArc:
		return []oem.NodeID{o.Parent, o.Child}
	}
	return nil
}

// String renders the history in the paper's H = ((t1,U1),...) style.
func (h History) String() string {
	var b strings.Builder
	b.WriteString("H = (")
	for i, step := range h {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%s, {%s})", step.At, step.Ops)
	}
	b.WriteString(")")
	return b.String()
}
