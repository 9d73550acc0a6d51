package lorel

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// The reference path semantics, as a test oracle: breadth first over the
// base Graph methods alone, no seekers or scratch, non-binding steps deduped.

// oracleMatch is one match of a path expression: the binding reached and
// the annotation variables bound on the way, in binding order.
type oracleMatch struct {
	b    binding
	vars []envVar
}

// oraclePath enumerates the matches of p from head. outer resolves the
// variables an <at E> operand names that the path itself does not bind.
func oraclePath(p *PathExpr, head binding, outer func(string) (binding, bool)) []oracleMatch {
	frontier := []oracleMatch{{b: head}}
	for _, s := range p.Steps {
		dedup := s.Arc.vars() == [3]string{} && s.Node.vars() == [3]string{}
		seen := make(map[string]bool) // by node and time-travel instant
		var next []oracleMatch
		for _, cur := range frontier {
			for _, m := range oracleStep(cur, s, outer) {
				if k := fmt.Sprint(m.b.id, m.b.hasAsOf, m.b.asOf); !dedup || !seen[k] {
					seen[k], next = true, append(next, m)
				}
			}
		}
		frontier = next
	}
	return frontier
}

// oracleStep expands one match through one step.
func oracleStep(cur oracleMatch, s *PathStep, outer func(string) (binding, bool)) []oracleMatch {
	if cur.b.kind != bNode {
		return nil // cannot traverse from a value or null
	}
	b, g := cur.b, cur.b.g
	live := func(n oem.NodeID) []oem.Arc { // the arcs an unannotated step sees
		if !b.hasAsOf {
			return g.Out(n)
		}
		return slices.DeleteFunc(slices.Clone(g.OutAll(n)), func(a oem.Arc) bool { return !g.ArcLiveAt(a, b.asOf) })
	}
	var out []oracleMatch
	reach := func(m oracleMatch, n oem.NodeID, ann *AnnotExpr) { // n, through its node annotation
		m.b.id = n
		switch {
		case ann == nil:
			out = append(out, m)
		case ann.Op == OpCre:
			if ct, ok := g.CreTime(n); ok {
				out = append(out, withVar(m, ann.AtVar, value.Time(ct)))
			}
		case ann.Op == OpUpd:
			for _, u := range g.UpdTriples(n) {
				out = append(out, withVar(withVar(withVar(m, ann.AtVar, value.Time(u.At)), ann.FromVar, u.Old), ann.ToVar, u.New))
			}
		case ann.Op == OpAt:
			if t, ok := oracleTime(m, ann.AtExpr, outer); ok {
				m.b.hasAsOf, m.b.asOf = true, t
				out = append(out, m)
			}
		}
	}
	switch {
	case s.Group != nil:
		for _, n := range oracleGroup(b.id, s.Group, live) {
			reach(cur, n, nil)
		}
	case s.Hash: // depth-first closure in stack order, the start included
		seen := map[oem.NodeID]bool{b.id: true}
		for stack := []oem.NodeID{b.id}; len(stack) > 0; {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			reach(cur, n, nil)
			for _, a := range live(n) {
				if !seen[a.Child] {
					seen[a.Child], stack = true, append(stack, a.Child)
				}
			}
		}
	case s.Arc == nil:
		for _, a := range live(b.id) {
			if oracleLabel(s.Label, s.Quoted, a.Label) {
				reach(cur, a.Child, s.Node)
			}
		}
	case s.Arc.Op == OpAdd || s.Arc.Op == OpRem:
		kind := map[AnnotOp]doem.AnnotKind{OpAdd: doem.AnnotAdd, OpRem: doem.AnnotRem}[s.Arc.Op]
		for _, a := range g.OutAll(b.id) {
			for _, ann := range g.ArcAnnots(a) {
				if ann.Kind == kind && oracleLabel(s.Label, s.Quoted, a.Label) {
					reach(withVar(cur, s.Arc.AtVar, value.Time(ann.At)), a.Child, s.Node)
				}
			}
		}
	case s.Arc.Op == OpAt:
		t, ok := oracleTime(cur, s.Arc.AtExpr, outer)
		cur.b.hasAsOf, cur.b.asOf = true, t
		for _, a := range g.OutAll(b.id) {
			if ok && oracleLabel(s.Label, s.Quoted, a.Label) && g.ArcLiveAt(a, t) {
				reach(cur, a.Child, s.Node)
			}
		}
	}
	return out
}

// withVar binds one more annotation variable (none when name is empty).
func withVar(m oracleMatch, name string, v value.Value) oracleMatch {
	if name != "" {
		m.vars = append(slices.Clip(m.vars), envVar{name, valueBinding(v)})
	}
	return m
}

// oracleTime resolves an <at E> operand: a literal, or a variable bound by
// the path so far (the innermost binding of the name), else by outer.
func oracleTime(m oracleMatch, ex Expr, outer func(string) (binding, bool)) (timestamp.Time, bool) {
	v := value.Null()
	if c, ok := ex.(*ConstExpr); ok {
		v = c.Val
	} else if pv, ok := ex.(*PathValueExpr); ok && len(pv.Path.Steps) == 0 {
		b, ok := outer(pv.Path.Head)
		for _, e := range m.vars {
			if e.name == pv.Path.Head {
				b, ok = e.b, true
			}
		}
		if ok && b.kind == bValue {
			v = b.val
		}
	}
	switch v.Kind() {
	case value.KindTime:
		return v.AsTime(), true
	case value.KindString:
		t, err := timestamp.Parse(v.AsString())
		return t, err == nil
	case value.KindInt:
		return timestamp.FromUnix(v.AsInt()), true
	}
	return timestamp.Time{}, false
}

// oracleLabel matches an arc label against a pattern: literally, or by '%'
// glob when the pattern is an unquoted one.
func oracleLabel(pattern string, quoted bool, label string) bool {
	return label == pattern || !quoted && strings.Contains(pattern, "%") && value.Str(label).Like(pattern)
}

// oracleGroup returns the nodes a path group reaches from start, ascending.
func oracleGroup(start oem.NodeID, grp *PathGroup, live func(oem.NodeID) []oem.Arc) []oem.NodeID {
	reached := map[oem.NodeID]bool{start: grp.Quant == '*' || grp.Quant == '?'}
	for frontier := map[oem.NodeID]bool{start: true}; len(frontier) > 0; {
		next := make(map[oem.NodeID]bool)
		for _, alt := range grp.Alts {
			set := frontier
			for _, l := range alt {
				step := make(map[oem.NodeID]bool)
				for n := range set {
					for _, a := range live(n) {
						if oracleLabel(l.Label, l.Quoted, a.Label) {
							step[a.Child] = true
						}
					}
				}
				set = step
			}
			for n := range set {
				if !reached[n] {
					reached[n], next[n] = true, true
				}
			}
		}
		if frontier = next; grp.Quant == 0 || grp.Quant == '?' {
			break // one application
		}
	}
	var ids []oem.NodeID
	for n, ok := range reached {
		if ok {
			ids = append(ids, n)
		}
	}
	slices.Sort(ids)
	return ids
}
