package lorel

import (
	"fmt"

	"repro/internal/timestamp"
	"repro/internal/value"
)

// This file gives annotation steps their time windows. A top-level where
// conjunct "V op c" on the time variable of an <upd at V>, <add at V> or
// <rem at V> generator step, with c a time constant, holds for every row
// the query returns, so the step need only read the annotations whose
// time can satisfy it. At prepare time the windows are collected as
// bounds (the conjuncts, not their values, so a cached plan holds no
// instant); each evaluation resolves them once, when it prepares the
// generator's walker, and the walker asks the graph for that window alone
// (UpdTriplesIn, ArcAnnotsIn). The conjuncts stay in the where clause and
// are applied as before, so a window only prunes annotations that could
// not have produced a row.
//
// A step gets a window only when the generators bind its variable there
// alone, so the conjunct's V is that step's. Bounds joined by or, under
// not, or against anything but a time literal or t[-i] give no window.

// timeBound is one where conjunct bounding an annotation step's variable,
// normalized to "V op c".
type timeBound struct {
	op string // <, <=, >, >= or =
	c  Expr   // a *ConstExpr time literal or a *TimeRefExpr
}

// stepWindow is the prepared window of one annotation step: the step,
// its variable and the bounds on it.
type stepWindow struct {
	step   *PathStep
	v      string
	bounds []timeBound
}

// annotWindows returns the windows of q's generator steps, in generator
// order.
func annotWindows(q *Query) []stepWindow {
	if q.Where == nil {
		return nil
	}
	var out []stepWindow
	var conjs []Expr
	for _, gens := range [2][]FromItem{q.From, q.WhereGens} {
		for _, g := range gens {
			for _, s := range g.Path.Steps {
				v := windowVar(s)
				if v == "" || genBinds(q, v) != 1 {
					continue
				}
				if conjs == nil {
					conjs = conjuncts(q.Where)
				}
				sw := stepWindow{step: s, v: v}
				for _, c := range conjs {
					if b, ok := boundOn(v, c); ok {
						sw.bounds = append(sw.bounds, b)
					}
				}
				if len(sw.bounds) > 0 {
					out = append(out, sw)
				}
			}
		}
	}
	return out
}

// genBinds counts the bindings q's generators make of variable v, as a
// range variable or an annotation variable of a step. A path in an
// expression or an exists body binds its variables only while that
// expression is evaluated, so neither can rebind a top-level conjunct's
// variable.
func genBinds(q *Query, v string) int {
	n := 0
	for _, gens := range [2][]FromItem{q.From, q.WhereGens} {
		for _, g := range gens {
			if g.Var == v {
				n++
			}
			for _, s := range g.Path.Steps {
				for _, vars := range [2][3]string{s.Arc.vars(), s.Node.vars()} {
					for _, x := range vars {
						if x == v {
							n++
						}
					}
				}
			}
		}
	}
	return n
}

// windowVar returns the time variable of a step the walker reads through
// a window: <add at V> or <rem at V> before a label, <upd at V> after one.
// Groups and wildcards ignore annotations, so they have none.
func windowVar(s *PathStep) string {
	if s.Group != nil || s.Hash {
		return ""
	}
	if s.Arc != nil && (s.Arc.Op == OpAdd || s.Arc.Op == OpRem) {
		return s.Arc.AtVar
	}
	if s.Node != nil && s.Node.Op == OpUpd {
		return s.Node.AtVar
	}
	return ""
}

// flipped maps an operator to the one that holds with its operands
// swapped.
var flipped = map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "="}

// boundOn reads conjunct e as a bound "v op c", with v on either side.
func boundOn(v string, e Expr) (timeBound, bool) {
	x, ok := e.(*BinExpr)
	if !ok {
		return timeBound{}, false
	}
	op, ok := flipped[x.Op]
	if !ok {
		return timeBound{}, false
	}
	switch {
	case isVar(x.L, v) && isTimeConst(x.R):
		return timeBound{op: x.Op, c: x.R}, true
	case isVar(x.R, v) && isTimeConst(x.L):
		return timeBound{op: op, c: x.L}, true
	}
	return timeBound{}, false
}

func isVar(e Expr, v string) bool {
	p, ok := e.(*PathValueExpr)
	return ok && p.Path.Head == v && len(p.Path.Steps) == 0
}

// isTimeConst reports whether e is t[-i] or a literal that may be a time;
// a string that does not parse as one gives no window when resolved.
func isTimeConst(e Expr) bool {
	switch x := e.(type) {
	case *TimeRefExpr:
		return true
	case *ConstExpr:
		k := x.Val.Kind()
		return k == value.KindString || k == value.KindTime
	}
	return false
}

// window is a set of instants between two bounds, each open or closed.
type window struct {
	from, to         timestamp.Time
	fromOpen, toOpen bool
}

// everything is the window no bound narrows.
var everything = window{from: timestamp.NegInf, to: timestamp.PosInf}

// narrow intersects w with "V op t".
func (w window) narrow(op string, t timestamp.Time) window {
	if op == "=" || op == ">" || op == ">=" {
		if c := t.Compare(w.from); c > 0 || c == 0 && op == ">" {
			w.from, w.fromOpen = t, op == ">"
		}
	}
	if op == "=" || op == "<" || op == "<=" {
		if c := t.Compare(w.to); c < 0 || c == 0 && op == "<" {
			w.to, w.toOpen = t, op == "<"
		}
	}
	return w
}

// closed returns w as the closed window [from, to] of whole seconds the
// graph reads: instants are whole seconds, so an open finite bound moves
// in by one. from after to means no instant.
func (w window) closed() (from, to timestamp.Time) {
	from, to = w.from, w.to
	if w.fromOpen && from.IsFinite() {
		from = from.Add(1e9)
	}
	if w.toOpen && to.IsFinite() {
		to = to.Add(-1e9)
	}
	return from, to
}

// String renders w in interval notation, e.g. ("1Jan97", +inf).
func (w window) String() string {
	lo, hi := "[", "]"
	if w.fromOpen || !w.from.IsFinite() {
		lo = "("
	}
	if w.toOpen || !w.to.IsFinite() {
		hi = ")"
	}
	return lo + renderBound(w.from) + ", " + renderBound(w.to) + hi
}

func renderBound(t timestamp.Time) string {
	if !t.IsFinite() {
		return t.String()
	}
	return fmt.Sprintf("%q", t.String())
}

// resolveWindow evaluates a step's bounds under this evaluation's poll
// times and literal coercions. ok is false when some bound is no time, in
// which case the step reads every annotation.
func (ev *evaluation) resolveWindow(sw stepWindow) (window, bool) {
	w := everything
	for _, b := range sw.bounds {
		var t timestamp.Time
		switch c := b.c.(type) {
		case *TimeRefExpr:
			t = ev.pollTime(c.Index)
		case *ConstExpr:
			if c.Val.Kind() == value.KindTime {
				t = c.Val.AsTime()
			} else if m, ok := ev.litTime(c); ok {
				if !m.ok {
					return everything, false
				}
				t = m.t
			} else {
				var err error
				if t, err = timestamp.Parse(c.Val.AsString()); err != nil {
					return everything, false
				}
			}
		}
		w = w.narrow(b.op, t)
	}
	return w, true
}

// windowNotes renders the window of every generator step that has one, in
// generator order, for EXPLAIN.
func (ev *evaluation) windowNotes(pr *prepared) []string {
	var notes []string
	for _, sw := range pr.windows {
		if w, ok := ev.resolveWindow(sw); ok {
			notes = append(notes, fmt.Sprintf("window %s in %s", sw.v, w))
		}
	}
	return notes
}
