package lorel

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// The reference query semantics, as a test oracle: the paper's nested loops
// over the generators in written order. Each generator enumerates its
// oraclePath matches; a strict (from-clause) generator with none drops the
// tuple, an existential (hoisted where) one binds null. The whole where
// clause is tested on each complete tuple, whose rows are then kept in
// first-occurrence order. Where and select expressions go through the
// evaluation's own evalBool and buildRows: the oracle pins enumeration,
// not expression semantics.
func oracleQuery(e *Engine, q *Query) (*Result, error) {
	ev := e.newEvaluation(context.Background())
	en := &ev.env
	gens := append(append([]FromItem{}, q.From...), q.WhereGens...)
	res, seen := &Result{}, map[string]bool{}
	var loop func(i int) error
	loop = func(i int) error {
		if i == len(gens) {
			if q.Where != nil {
				if ok, err := ev.evalBool(q.Where); err != nil || !ok {
					return err
				}
			}
			rows, err := ev.buildRows(q.Select)
			for _, r := range rows {
				if k := string(r.appendKey(nil)); !seen[k] {
					seen[k], res.Rows = true, append(res.Rows, r)
				}
			}
			return err
		}
		g := gens[i]
		head, err := ev.pathHead(g.Path)
		if err != nil {
			return err
		}
		ms := oraclePath(g.Path, head, en.lookup)
		if len(ms) == 0 && i >= len(q.From) {
			defer en.release(en.mark())
			en.bindNull(g)
			return loop(i + 1)
		}
		for _, match := range ms {
			m := en.mark()
			for _, v := range match.vars {
				en.bind(v.name, v.b)
			}
			en.bind(g.Var, match.b)
			err := loop(i + 1)
			en.release(m)
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := loop(0); err != nil {
		return nil, err
	}
	return res, nil
}

// TestWrittenOrderMatchesOracle holds the executor to oracleQuery with
// planning on and off: the same rows in the same order (node identity and
// time-travel instant included), or the same error text. The corpus is
// TestWalkerMatchesOracle's random paths over Churn histories, as a from
// generator, twice in a join (a repeated annotation variable makes the
// planner reject it) and as a where-clause generator under or; the
// template pool of internal/plan's TestPlannerEvalParity over generated
// histories; and shapes the planner rejects or that exercise the
// written-order plan's null-binding.
func TestWrittenOrderMatchesOracle(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	unplannable0 := mPlanUnplannable.Value()
	compared, nonEmpty := 0, 0
	check := func(label string, engines [2]*Engine, src string) {
		t.Helper()
		q, err := Parse(src)
		if err == nil {
			err = Canonicalize(q)
		}
		if err != nil {
			t.Fatalf("%s: %s: %v", label, src, err)
		}
		want := renderOutcome(oracleQuery(engines[0], q))
		for i, e := range engines {
			if got := renderOutcome(e.Query(src)); got != want {
				t.Fatalf("%s: planning=%v %s:\nexecutor:\n%s\noracle:\n%s", label, i == 1, src, got, want)
			}
		}
		compared++
		if !strings.HasPrefix(want, "0 row(s)") && !strings.HasPrefix(want, "error") {
			nonEmpty++
		}
	}
	engines := func(g Graph, polls []timestamp.Time) [2]*Engine {
		var es [2]*Engine
		for i := range es {
			es[i] = NewEngine()
			es[i].SetPlanning(i == 1)
			es[i].Register("guide", g)
			es[i].SetPollTimes(polls)
		}
		return es
	}

	for seed := int64(1); seed <= 3; seed++ {
		initial, h := guidegen.GenerateChurn(seed, 40, 20, 8)
		d, err := doem.FromHistory(initial, h)
		if err != nil {
			t.Fatal(err)
		}
		t0 := fmt.Sprintf("%q", h[len(h)/2].At.String())
		for _, g := range []Graph{d, NewOEMGraph(d.Current()), scanGraph{d}} {
			es := engines(g, nil)
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				s := strings.ReplaceAll(randomSteps(rng), "T0", t0)
				label := fmt.Sprintf("churn seed %d %T", seed, g)
				check(label, es, "select X from guide."+s+" X")
				check(label, es, "select X, Y from guide."+s+" X, X."+s+" Y")
				check(label, es, "select X from guide.% X where X."+s+" or X.d")
			}
		}
	}

	for seed := int64(1); seed <= 4; seed++ {
		initial, h := guidegen.GenerateHistory(seed, 12, 25, 6)
		d, err := doem.FromHistory(initial, h)
		if err != nil {
			t.Fatal(err)
		}
		steps := d.Steps()
		es := engines(d, steps[:len(steps)/2+1])
		rng := rand.New(rand.NewSource(seed * 7919))
		for i := 0; i < 30; i++ {
			check(fmt.Sprintf("parity seed %d", seed), es, parityQuery(rng, steps))
		}
	}

	_, _, d := paperEngine(t)
	es := engines(d, nil)
	for _, src := range []string{
		`select T from guide.<add at T>restaurant R, R.<add at T>name N`,                   // duplicate annotation variable
		`select N, T from guide.restaurant R, R.name N where R.<add at T>price or R.price`, // existential variable in select
		`select R from guide.restaurant R where R.nosuch = 1 or R.price < 20.5`,            // empty existential under or
		`select R from guide.restaurant R where R.price + 1`,                               // evaluation error
		`select R from guide.restaurant R where R.price = 99 and R.price + 1`,              // error short-circuited
		`select N from nosuch.restaurant R, R.name N`,                                      // unknown name
	} {
		check("paper guide", es, src)
	}

	unplannable := mPlanUnplannable.Value() - unplannable0
	t.Logf("%d queries compared, %d with rows, %d prepared unplannable", compared, nonEmpty, unplannable)
	if nonEmpty < 500 || unplannable < 100 {
		t.Errorf("%d queries returned rows and %d were unplannable, want >= 500 and >= 100", nonEmpty, unplannable)
	}
}

// renderOutcome renders a query outcome for comparison: the result table
// plus each row's identity key, or the error text.
func renderOutcome(res *Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	b.WriteString(res.String())
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%q\n", r.appendKey(nil))
	}
	return b.String()
}

// parityQuery draws one query from internal/plan's parity template pool:
// joins with selective predicates, wide generators written before narrow
// ones, annotation and <at T> constraints, and shapes the planner refuses.
func parityQuery(rng *rand.Rand, steps []timestamp.Time) string {
	at := func() string { // a step instant, or one second either side of it
		return fmt.Sprintf("%q", steps[rng.Intn(len(steps))].Add(time.Duration(rng.Intn(3)-1)*time.Second).String())
	}
	price := func() int { return 5 + rng.Intn(40) }
	return [...]func() string{
		func() string { return `select guide.restaurant.name` },
		func() string {
			return fmt.Sprintf(`select N from guide.restaurant R, R.name N where R.price < %d`, price())
		},
		func() string {
			return fmt.Sprintf(`select X from guide.restaurant R, R.# X, R.price P where P < %d`, price())
		},
		func() string {
			return fmt.Sprintf(`select N from guide.# X, guide.restaurant R, R.name N where R.price < %d`, price())
		},
		func() string { return fmt.Sprintf(`select guide.<at %s>restaurant.name`, at()) },
		func() string {
			return fmt.Sprintf(`select R from guide.<at %s>restaurant R, R.<at %s>price P where P < %d`, at(), at(), price())
		},
		func() string { return `select N, T from guide.<add at T>restaurant R, R.name N` },
		func() string {
			return fmt.Sprintf(`select N from guide.<add at T>restaurant R, R.name N where T > %s`, at())
		},
		func() string { return `select T from guide.<rem at T>restaurant` },
		func() string { return `select T, OV, NV from guide.restaurant.price<upd at T from OV to NV>` },
		func() string { return `select guide.#.name` },
		func() string {
			return fmt.Sprintf(`select N, T from guide.restaurant<cre at T> R, R.name N where T >= %s`, at())
		},
		func() string {
			return fmt.Sprintf(`select T from guide.<add at T>restaurant where T > t[-%d]`, 1+rng.Intn(5))
		},
		func() string {
			return fmt.Sprintf(`select N, C from guide.restaurant R, R.name N, R.cuisine C where R.price < %d`, price())
		},
		func() string { return `select count(R.comment) from guide.restaurant R where R.price < 20` },
		func() string { return `select guide.restaurant.commen%` },
	}[rng.Intn(16)]()
}

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
			for _, u := range g.UpdTriplesIn(n, timestamp.NegInf, timestamp.PosInf) {
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
			for _, ann := range g.ArcAnnotsIn(a, timestamp.NegInf, timestamp.PosInf) {
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
