package lorel

import (
	"errors"

	"repro/internal/oem"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// This file is the evaluation core's path walker: a push-style depth-first
// walker that yields a path's matches one at a time instead of
// materializing frontiers. Consumers stop the walk early by
// returning errStop from the yield — `exists` stops at its first witness,
// generator bindings stream into the next generator without a candidate
// slice, and the planned executor's existential search stops expanding
// the instant a completion satisfies.
//
// A walker is prepared once per evaluation for each path position (a
// generator, an exists, an aggregate) and reused for every outer binding:
// its step matchers, its consumer and its dedup scratch all survive from
// one run to the next, and the annotation variables a match binds are
// written to the evaluation's environment stack for the duration of the
// yield. In steady state a run allocates
// nothing.
//
// The walk's order is the path's semantics: the step-k matches come out as
// the concatenation, over the step-(k-1) matches in order, of each match's
// expansions — the order a breadth-first frontier expansion appends them —
// and each step delivers a node at most once unless the step binds
// variables. The reference enumerator in oracle_test.go is that
// breadth-first expansion, written over the base Graph methods alone, and
// the differential test there holds the walker to it match for match.
//
// One semantic note, documented in docs/eval.md: early termination skips
// path-expansion work after the stopping point, so an error lurking past
// the first witness of an `exists` is not surfaced. This mirrors the
// planner's contract
// (pushed conjuncts must be pure and error-free for reordering) — the
// set of *successful* results is unchanged; only doomed work is skipped.

// errStop is the sentinel a pathYield returns to end a walk early. It
// never escapes the package: run returns it to the caller whose consumer
// injected it, which converts it back to a normal stop.
var errStop = errors.New("lorel: stop iteration")

// pathYield consumes one path match; the annotation variables the match
// bound are in the evaluation's environment while it runs. Returning
// errStop ends the walk early and successfully; any other error aborts it.
type pathYield func(binding) error

// stepCtx is one step of a prepared walker: the resolved label matcher
// (canonical pattern) and the step's first-occurrence dedup scratch.
type stepCtx struct {
	step  *PathStep
	binds bool   // step binds annotation variables; dedup must not apply
	exact bool   // label matches by equality (no '%' glob)
	canon string // canonical pattern for equality scans

	// from and to close the window of annotation times the step reads
	// (see window.go); everything unless a where bound narrowed it.
	from, to timestamp.Time

	// unique: expanding one binding through this step reaches each node at
	// most once. OEM arcs are a set, so one parent has one (label, child)
	// arc: an exact label cannot repeat a child, and closures and groups
	// collect their reached set. A glob can reach one child through two
	// labels, and a variable-less <add>/<rem>/<upd> repeats a node per
	// annotation.
	unique bool
	// dedup: the step filters repeated deliveries within one run. Never for
	// a binding step (each match is distinct by its variables), and not for
	// a unique first step, whose single parent is the head.
	dedup bool
	seen  seenSet
}

// seenSet is a first-occurrence filter over delivered nodes: scanned while
// small, hashed past seenScan, and reused from one run to the next. One
// walk's bindings share the head's graph, so the node id and the
// time-travel instant identify a binding.
type seenSet struct {
	few  []seenKey
	many map[seenKey]struct{}
}

type seenKey struct {
	id      oem.NodeID
	hasAsOf bool
	asOf    timestamp.Time
}

// seenScan is the largest set kept as a scanned slice.
const seenScan = 8

func (st *stepCtx) init(s *PathStep) {
	st.step = s
	st.binds = stepBindsVars(s)
	st.from, st.to = timestamp.NegInf, timestamp.PosInf
	st.unique = true
	if s.Group == nil && !s.Hash {
		st.exact = exactLabel(s)
		st.canon = s.Label
		if c, ok := symbol.Lookup(s.Label); ok {
			st.canon = c
		}
		st.unique = st.exact && (s.Arc == nil || s.Arc.Op == OpAt) && (s.Node == nil || s.Node.Op != OpUpd)
	}
}

// match reports whether an arc label matches the step. Exact patterns
// compare against the canonical string, so matches against interned
// arc labels hit the runtime's pointer-equality fast path.
func (st *stepCtx) match(label string) bool {
	if st.exact {
		return st.canon == label
	}
	return value.Str(label).Like(st.step.Label)
}

// fresh records b and reports whether this is its first occurrence.
func (s *seenSet) fresh(b binding) bool {
	k := seenKey{id: b.id, hasAsOf: b.hasAsOf}
	if b.hasAsOf {
		k.asOf = b.asOf
	}
	if len(s.few) > seenScan {
		if _, dup := s.many[k]; dup {
			return false
		}
		s.many[k] = struct{}{}
		return true
	}
	for _, f := range s.few {
		if f == k {
			return false
		}
	}
	s.few = append(s.few, k)
	if len(s.few) > seenScan {
		if s.many == nil {
			s.many = make(map[seenKey]struct{}, 4*seenScan)
		}
		for _, f := range s.few {
			s.many[f] = struct{}{}
		}
	}
	return true
}

func (s *seenSet) reset() {
	if len(s.few) > seenScan {
		clear(s.many)
	}
	s.few = s.few[:0]
}

// pathWalker is one path position prepared for an evaluation: the step
// contexts, the head graph and the consumer of its matches. All bindings
// reached from one head share its graph.
type pathWalker struct {
	ev    *evaluation
	path  *PathExpr
	steps []stepCtx
	// yield consumes the matches. Whoever walks this position installs it,
	// normally once: a position has one consumer for the whole evaluation.
	// state is that consumer's to keep between runs.
	yield pathYield
	state any
	n     int // matches delivered by the latest run

	g Graph
}

func (ev *evaluation) newWalker(p *PathExpr) *pathWalker {
	w := &pathWalker{ev: ev, path: p, steps: make([]stepCtx, len(p.Steps))}
	for i, s := range p.Steps {
		st := &w.steps[i]
		st.init(s)
		st.dedup = !st.binds && !(i == 0 && st.unique)
	}
	return w
}

// walker returns the evaluation's walker for the path an expression walks,
// preparing it on first use.
func (ev *evaluation) walker(at Expr, p *PathExpr) *pathWalker {
	w := ev.walkers[at]
	if w == nil {
		if ev.walkers == nil {
			ev.walkers = make(map[Expr]*pathWalker)
		}
		w = ev.newWalker(p)
		ev.walkers[at] = w
	}
	return w
}

// run streams the path's matches under the current environment to the
// walker's consumer, in path order.
// A consumer returning errStop ends the walk early; run returns errStop in
// that case so the caller can distinguish its own stop from a real error.
func (w *pathWalker) run() error {
	head, err := w.ev.pathHead(w.path)
	if err != nil {
		return err
	}
	w.n = 0
	if head.kind == bNode {
		w.g = head.g
	}
	for i := range w.steps {
		w.steps[i].seen.reset()
	}
	return w.walk(head, 0)
}

// walk expands cur through the steps from depth on, yielding completed
// matches.
func (w *pathWalker) walk(cur binding, depth int) error {
	if depth == len(w.steps) {
		w.n++
		return w.yield(cur)
	}
	if err := w.ev.checkCancel(); err != nil {
		return err
	}
	return w.expand(cur, depth)
}

// deliver applies depth's dedup to one reached binding and recurses.
func (w *pathWalker) deliver(b binding, depth int) error {
	if st := &w.steps[depth]; st.dedup && !st.seen.fresh(b) {
		return nil
	}
	return w.walk(b, depth+1)
}

// expand applies one path step to one binding, delivering each reached
// binding; annotation variables the step binds are on the environment
// stack while the delivery runs.
func (w *pathWalker) expand(cur binding, depth int) error {
	if cur.kind != bNode {
		return nil // cannot traverse from a value or null
	}
	st := &w.steps[depth]
	step := st.step
	g := w.g

	// Regular path group: (a.b|c) with an optional quantifier. Groups
	// materialize their reached set (the quantifier closure needs it) and
	// stream the sorted result.
	if step.Group != nil {
		for _, id := range w.ev.expandGroup(cur, step.Group) {
			nb := cur
			nb.id = id
			if err := w.deliver(nb, depth); err != nil {
				return err
			}
		}
		return nil
	}

	// '#' wildcard: all nodes reachable in zero or more steps, streamed in
	// depth-first stack order — an exists over guide.# stops the closure at
	// its first witness.
	if step.Hash {
		seen := map[oem.NodeID]bool{cur.id: true}
		stack := []oem.NodeID{cur.id}
		for len(stack) > 0 {
			if err := w.ev.checkCancel(); err != nil {
				return err
			}
			nb := cur
			nb.id = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if err := w.deliver(nb, depth); err != nil {
				return err
			}
			for _, a := range w.ev.liveArcs(cur, g, nb.id) {
				if !seen[a.Child] {
					seen[a.Child] = true
					stack = append(stack, a.Child)
				}
			}
		}
		return nil
	}

	switch {
	case step.Arc == nil && cur.hasAsOf:
		// Below an <at T>, an unannotated step reads the arcs live at T.
		return w.liveAt(cur, depth, cur.asOf)
	case step.Arc == nil:
		for _, a := range g.Out(cur.id) {
			if !st.match(a.Label) {
				continue
			}
			if err := w.child(cur, depth, a.Child, nil); err != nil {
				return err
			}
		}
	case step.Arc.Op == OpAdd || step.Arc.Op == OpRem:
		wantKind := annotKindFor(step.Arc.Op)
		en := &w.ev.env
		for _, a := range g.OutAll(cur.id) {
			if !st.match(a.Label) {
				continue
			}
			for _, ann := range g.ArcAnnotsIn(a, st.from, st.to) {
				if ann.Kind != wantKind {
					continue
				}
				m := en.mark()
				if step.Arc.AtVar != "" {
					en.bind(step.Arc.AtVar, valueBinding(value.Time(ann.At)))
				}
				err := w.child(cur, depth, a.Child, nil)
				en.release(m)
				if err != nil {
					return err
				}
			}
		}
	case step.Arc.Op == OpAt:
		t, ok, err := w.ev.evalTime(step.Arc.AtExpr)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		return w.liveAt(cur, depth, t)
	default:
		return errf(step.P, "%s annotation cannot precede an arc label", step.Arc.Op)
	}
	return nil
}

// liveAt expands cur through the step's arcs that existed at t, delivering
// each child as of t. It is <at T> as Section 4.2.2 defines it: each arc's
// own add/rem annotations decide, so no snapshot of t is built.
func (w *pathWalker) liveAt(cur binding, depth int, t timestamp.Time) error {
	st := &w.steps[depth]
	for _, a := range w.g.OutAll(cur.id) {
		if !st.match(a.Label) || !w.g.ArcLiveAt(a, t) {
			continue
		}
		if err := w.child(cur, depth, a.Child, &t); err != nil {
			return err
		}
	}
	return nil
}

// child applies the step's node annotation to one reached child and
// delivers the survivors.
func (w *pathWalker) child(cur binding, depth int, id oem.NodeID, asOf *timestamp.Time) error {
	cur.id = id
	if asOf != nil {
		cur.hasAsOf = true
		cur.asOf = *asOf
	}
	st := &w.steps[depth]
	ann := st.step.Node
	if ann == nil {
		return w.deliver(cur, depth)
	}
	en := &w.ev.env
	switch ann.Op {
	case OpCre:
		ct, ok := w.g.CreTime(id)
		if !ok {
			return nil
		}
		m := en.mark()
		if ann.AtVar != "" {
			en.bind(ann.AtVar, valueBinding(value.Time(ct)))
		}
		err := w.deliver(cur, depth)
		en.release(m)
		return err
	case OpUpd:
		for _, u := range w.g.UpdTriplesIn(id, st.from, st.to) {
			m := en.mark()
			if ann.AtVar != "" {
				en.bind(ann.AtVar, valueBinding(value.Time(u.At)))
			}
			if ann.FromVar != "" {
				en.bind(ann.FromVar, valueBinding(u.Old))
			}
			if ann.ToVar != "" {
				en.bind(ann.ToVar, valueBinding(u.New))
			}
			err := w.deliver(cur, depth)
			en.release(m)
			if err != nil {
				return err
			}
		}
		return nil
	case OpAt:
		t, ok, err := w.ev.evalTime(ann.AtExpr)
		if err != nil || !ok {
			return err
		}
		cur.hasAsOf = true
		cur.asOf = t
		return w.deliver(cur, depth)
	default:
		return errf(ann.P, "%s annotation cannot follow a label", ann.Op)
	}
}
