package lorel

import (
	"slices"

	"repro/internal/plan"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// This file prepares every query's plan. It extracts a planner Spec from a
// canonicalized query, statically validates that the query is plannable
// (see below), probes the registered graphs for cardinality statistics,
// and caches the prepared plan keyed by the query's canonical-AST key
// alongside the stats versions it was costed against.
//
// The written-order plan (writtenOrder) is the paper's definition of a
// Lorel answer: nested loops over the generators as written, the whole
// where clause tested on each complete tuple. A cost-based plan evaluates
// pushed conjuncts on partial tuples and skips redundant existential
// extensions, which is only byte-identical to the written-order plan when
// (a) no evaluation step can raise a runtime error (all of eval.go's error
// sites are statically decidable from the AST and the registered names),
// (b) select items depend only on strict (from-clause) variables, and (c)
// strict generators depend only on strict generators. Plannability is
// that correctness gate, not an optimization: a query violating any of
// these runs the written-order plan, which reproduces its behavior —
// errors included — exactly.

// prepared is one plan-cache entry: the plan plus the extraction
// artifacts the executor needs, pinned to the graphs and stats versions it
// was prepared against.
type prepared struct {
	plan  *plan.Plan
	gens  []FromItem // From ++ WhereGens, original order
	conjs []Expr     // the where conjuncts plan.Push indexes, original order
	// constTimes marks <at T> operands with no variable dependencies;
	// the evaluation memoizes them once instead of re-resolving per
	// binding (constant time-expression hoisting).
	constTimes map[Expr]bool
	// litTimes holds the time coercion of each string literal in operand
	// position, so a comparison against a time reads it instead of
	// re-parsing the literal for every binding.
	litTimes map[*ConstExpr]timeMemo
	// windows holds the where bounds of annotation generator steps
	// (window.go); each evaluation resolves them when it prepares the
	// step's walker.
	windows []stepWindow

	// Staleness pins: per consulted database, its identity tag and stats
	// version at prepare time, plus head names that did not resolve
	// (registering one later must invalidate the entry).
	vers    map[string]uint64
	tags    map[string]uintptr
	missing []string
}

// fresh reports whether the entry's pins still hold against the
// evaluation's graph snapshot.
func (pr *prepared) fresh(graphs map[string]Graph) bool {
	for name, tag := range pr.tags {
		g, ok := graphs[name]
		if !ok || graphTag(g) != tag || statsVersionOf(g) != pr.vers[name] {
			return false
		}
	}
	for _, name := range pr.missing {
		if _, ok := graphs[name]; ok {
			return false
		}
	}
	return true
}

// statsVersionOf extracts a change-detection version from a graph: its
// stats version when it serves planner statistics, zero otherwise
// (identity-only pinning).
func statsVersionOf(g Graph) uint64 {
	if s, ok := g.(plan.Stats); ok {
		return s.StatsVersion()
	}
	return 0
}

// SetPlanning chooses between cost-based plans and the written-order plan
// for this engine's queries. New engines plan.
func (e *Engine) SetPlanning(on bool) {
	e.mu.Lock()
	e.planning = on
	e.mu.Unlock()
}

// planFor returns the plan q runs under, consulting and maintaining the
// plan cache. A query that never went through canonicalization, or any
// query on an engine with planning off, gets the written-order plan
// uncached; a query the validator rejects gets it cached like any entry.
func (e *Engine) planFor(ev *evaluation, q *Query) *prepared {
	if q.key == "" || !ev.planning {
		return writtenOrder(q)
	}
	e.planMu.Lock()
	pr, ok := e.plans.get(q.key)
	e.planMu.Unlock()
	if ok && pr.fresh(ev.graphs) {
		mPlanCacheHits.Inc()
		return pr
	}
	if ok {
		mPlanReprepares.Inc()
	} else {
		mPlanCacheMisses.Inc()
	}
	pr, planned := prepareQuery(q, ev.graphs)
	if !planned {
		mPlanUnplannable.Inc()
	}
	e.planMu.Lock()
	e.plans.put(q.key, pr)
	e.planMu.Unlock()
	return pr
}

// PlanDescription parses src (through the parse cache) and returns the
// planner's EXPLAIN lines for it against the currently registered
// graphs: chosen join order, pushed predicates, and estimated
// cardinalities. It never evaluates the query, and with planning off it
// does not plan it either.
func (e *Engine) PlanDescription(src string) ([]string, error) {
	q, err := e.cachedQuery(nil, src)
	if err != nil {
		return nil, err
	}
	ev := e.newEvaluation(nil)
	if !ev.planning {
		return []string{"planner: disabled (Engine.SetPlanning); written-order evaluation"}, nil
	}
	pr := e.planFor(ev, q)
	return append(slices.Clip(pr.plan.Notes), ev.windowNotes(pr)...), nil
}

// prepareQuery extracts, validates and plans one canonical query against
// a graph snapshot. A query the validator rejects gets the written-order
// plan (and planned=false), pinned like a cost-based one so that
// registering a name it missed re-prepares it.
func prepareQuery(q *Query, graphs map[string]Graph) (pr *prepared, planned bool) {
	b := &specBuilder{
		graphs: graphs,
		varGen: make(map[string]int),
		vers:   make(map[string]uint64),
		tags:   make(map[string]uintptr),
		consts: make(map[Expr]bool),
		lits:   make(map[*ConstExpr]timeMemo),
	}
	gens := append(append([]FromItem{}, q.From...), q.WhereGens...)
	spec, planned := b.build(q, gens, len(q.From))
	if planned {
		pr = &prepared{
			plan:       plan.Prepare(spec),
			gens:       gens,
			conjs:      conjuncts(q.Where),
			constTimes: b.consts,
			litTimes:   b.lits,
			windows:    annotWindows(q),
		}
	} else {
		pr = writtenOrder(q)
		pr.plan.Notes = []string{"planner: query not plannable; canonical written-order evaluation"}
	}
	pr.vers, pr.tags, pr.missing = b.vers, b.tags, b.missing
	return pr, planned
}

// writtenOrder returns q's written-order plan: every generator enumerated
// in written order (NStrict covers them all, so none is searched for a
// witness, and an empty existential one binds null; see plannedExec.run),
// and the whole where clause, not flattened, as one conjunct tested once
// all generators are bound. Evaluation order, short-circuiting and errors
// are therefore exactly evalBool(q.Where)'s. No operand is memoized.
func writtenOrder(q *Query) *prepared {
	gens := append(append([]FromItem{}, q.From...), q.WhereGens...)
	n := len(gens)
	pl := &plan.Plan{Order: make([]int, n), NStrict: n, Push: make([][]int, n+1), Est: make([]float64, n)}
	for i := range pl.Order {
		pl.Order[i] = i
	}
	pr := &prepared{plan: pl, gens: gens, windows: annotWindows(q)}
	if q.Where != nil {
		pr.conjs = []Expr{q.Where}
		pl.Push[n] = []int{0}
	}
	return pr
}

// conjuncts flattens the top-level "and" tree of a where clause.
func conjuncts(where Expr) []Expr {
	if where == nil {
		return nil
	}
	var out []Expr
	var flatten func(Expr)
	flatten = func(e Expr) {
		if x, ok := e.(*BinExpr); ok && x.Op == "and" {
			flatten(x.L)
			flatten(x.R)
			return
		}
		out = append(out, e)
	}
	flatten(where)
	return out
}

// specBuilder walks a canonical query, building the planner Spec and
// rejecting anything the planned executor cannot reproduce exactly.
type specBuilder struct {
	graphs  map[string]Graph
	varGen  map[string]int // variable -> generator index binding it
	genDB   []string       // per generator: root database name ("" unknown)
	vers    map[string]uint64
	tags    map[string]uintptr
	missing []string
	consts  map[Expr]bool
	lits    map[*ConstExpr]timeMemo // nil when only validating (StaticallySafe)
	// stats holds, per database, its statistics provider and the totals
	// read from it once for this prepare.
	stats map[string]dbStats
}

type dbStats struct {
	st     plan.Stats
	totals plan.Card
}

func (b *specBuilder) build(q *Query, gens []FromItem, nStrict int) (*plan.Spec, bool) {
	b.genDB = make([]string, len(gens))
	spec := &plan.Spec{}

	for i, g := range gens {
		gs, ok := b.genSpec(i, g, i < nStrict)
		if !ok {
			return nil, false
		}
		spec.Gens = append(spec.Gens, gs)
	}
	// Strict generators must not depend on existential ones: the planned
	// executor binds the whole strict block before searching extensions.
	for i := 0; i < nStrict; i++ {
		for _, d := range spec.Gens[i].Deps {
			if d >= nStrict {
				return nil, false
			}
		}
	}

	for _, c := range conjuncts(q.Where) {
		ck := &exprCheck{b: b}
		ck.predicate(c, nil)
		if !ck.ok() {
			return nil, false
		}
		spec.Conjs = append(spec.Conjs, plan.ConjSpec{
			Text: c.String(),
			Deps: ck.depList(),
			Kind: predKind(c),
		})
	}

	// Select items must be error-free and reachable from strict
	// variables alone (the canonicalizer guarantees this for parsed
	// queries; programmatically built ones are re-checked).
	for _, s := range q.Select {
		ck := &exprCheck{b: b}
		ck.operand(s.Expr, nil)
		if !ck.ok() {
			return nil, false
		}
		for _, d := range ck.depList() {
			if d >= nStrict {
				return nil, false
			}
		}
	}
	return spec, true
}

// genSpec classifies one canonical generator and resolves its deps and
// cardinalities; ok=false rejects the query.
func (b *specBuilder) genSpec(i int, g FromItem, strict bool) (plan.GenSpec, bool) {
	gs := plan.GenSpec{Var: g.Var, Source: g.Path.String(), Strict: strict}
	p := g.Path
	if g.Var == "" || len(p.Steps) > 1 {
		return gs, false
	}
	deps := make(map[int]bool)

	// Head: an earlier generator's variable or a registered database.
	if gi, ok := b.varGen[p.Head]; ok {
		deps[gi] = true
		b.genDB[i] = b.genDB[gi]
	} else if _, ok := b.graphs[p.Head]; ok {
		b.recordDB(p.Head)
		b.genDB[i] = p.Head
		gs.Root = true
	} else {
		b.missing = append(b.missing, p.Head)
		return gs, false
	}

	label := ""
	if len(p.Steps) == 0 {
		gs.Kind = plan.KindHead
	} else {
		s := p.Steps[0]
		switch {
		case s.Group != nil, s.Hash:
			// The evaluator silently ignores annotations on group and
			// subtree steps; keep that quirk on the written-order plan.
			if s.Arc != nil || s.Node != nil {
				return gs, false
			}
			gs.Kind = plan.KindGroup
			if s.Hash {
				gs.Kind = plan.KindHash
			}
		case s.Arc == nil:
			gs.Kind = plan.KindGlob
			if exactLabel(s) {
				gs.Kind = plan.KindLabel
				label = s.Label
			}
		case s.Arc.Op == OpAdd || s.Arc.Op == OpRem:
			gs.Kind = plan.KindAnnot
			if exactLabel(s) {
				label = s.Label
			}
		case s.Arc.Op == OpAt:
			gs.Kind = plan.KindAt
			if exactLabel(s) {
				label = s.Label
			}
		default:
			return gs, false // <cre>/<upd> before a label: evaluation error
		}
		if s.Arc != nil {
			if s.Arc.Op == OpAt {
				if !b.atExpr(s.Arc.AtExpr, deps) {
					return gs, false
				}
			} else if !b.bindVar(s.Arc.AtVar, i) {
				return gs, false
			}
		}
		if s.Node != nil && s.Group == nil && !s.Hash {
			switch s.Node.Op {
			case OpCre:
				if !b.bindVar(s.Node.AtVar, i) {
					return gs, false
				}
			case OpUpd:
				if !b.bindVar(s.Node.AtVar, i) || !b.bindVar(s.Node.FromVar, i) || !b.bindVar(s.Node.ToVar, i) {
					return gs, false
				}
			case OpAt:
				if !b.atExpr(s.Node.AtExpr, deps) {
					return gs, false
				}
			default:
				return gs, false // <add>/<rem> after a label: evaluation error
			}
		}
	}

	// The range variable itself binds last (its head was resolved above).
	if _, clash := b.varGen[g.Var]; clash {
		return gs, false
	}
	if _, clash := b.graphs[g.Var]; clash {
		return gs, false
	}
	b.varGen[g.Var] = i

	for d := range deps {
		gs.Deps = append(gs.Deps, d)
	}
	sortInts(gs.Deps)
	gs.Card = b.cardFor(b.genDB[i], label)
	return gs, true
}

// atExpr validates an <at T> operand, collects its generator deps, and
// marks it for constant hoisting when it has none.
func (b *specBuilder) atExpr(ex Expr, deps map[int]bool) bool {
	if ex == nil {
		return false
	}
	ck := &exprCheck{b: b}
	ck.operand(ex, nil)
	if !ck.ok() {
		return false
	}
	if len(ck.deps) == 0 {
		b.consts[ex] = true
	}
	for d := range ck.deps {
		deps[d] = true
	}
	return true
}

// bindVar registers an annotation variable bound by generator i. Empty
// names are fine (unbound); duplicates and database-name clashes reject
// the query (the written-order plan's env chain shadows, which reordering
// could not reproduce).
func (b *specBuilder) bindVar(v string, i int) bool {
	if v == "" {
		return true
	}
	if _, dup := b.varGen[v]; dup {
		return false
	}
	if _, clash := b.graphs[v]; clash {
		return false
	}
	b.varGen[v] = i
	return true
}

func (b *specBuilder) recordDB(name string) {
	if _, ok := b.tags[name]; ok {
		return
	}
	g := b.graphs[name]
	b.tags[name] = graphTag(g)
	b.vers[name] = statsVersionOf(g)
}

// cardFor returns the cardinalities for a generator over db filtering by
// label, reading the database's totals on first use only.
func (b *specBuilder) cardFor(db, label string) plan.Card {
	if db == "" {
		return plan.Card{}
	}
	ds, ok := b.stats[db]
	if !ok {
		ds.st, _ = b.graphs[db].(plan.Stats)
		ds.totals = plan.Totals(ds.st)
		if b.stats == nil {
			b.stats = make(map[string]dbStats)
		}
		b.stats[db] = ds
	}
	return ds.totals.ForLabel(ds.st, label)
}

// predKind classifies a conjunct's top operator for selectivity.
func predKind(e Expr) plan.PredKind {
	x, ok := e.(*BinExpr)
	if !ok {
		return plan.PredOther
	}
	switch x.Op {
	case "=":
		return plan.PredEq
	case "!=", "<", "<=", ">", ">=":
		return plan.PredRange
	case "like":
		return plan.PredLike
	}
	return plan.PredOther
}

// exprCheck validates an expression against eval.go's runtime error
// sites and collects the generators whose variables it references. Every
// error the evaluator can raise — unknown names, non-predicate operators
// in predicate position, misplaced annotations — is decidable from the
// AST and the name scopes, so an expression that passes here cannot fail
// at runtime in any environment binding the same variables.
type exprCheck struct {
	b      *specBuilder
	deps   map[int]bool
	failed bool
}

func (c *exprCheck) fail() { c.failed = true }

func (c *exprCheck) ok() bool { return !c.failed }

func (c *exprCheck) depList() []int {
	out := make([]int, 0, len(c.deps))
	for d := range c.deps {
		out = append(out, d)
	}
	sortInts(out)
	return out
}

// operand validates e in value position (evalOperand).
func (c *exprCheck) operand(e Expr, locals map[string]bool) {
	switch x := e.(type) {
	case *ConstExpr:
		if c.b.lits != nil && x.Val.Kind() == value.KindString {
			t, err := timestamp.Parse(x.Val.AsString())
			c.b.lits[x] = timeMemo{t: t, ok: err == nil}
		}
	case *TimeRefExpr:
	case *PathValueExpr:
		c.path(x.Path, locals)
	case *AggExpr:
		c.path(x.Path, locals)
	case *BinExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			c.operand(x.L, locals)
			c.operand(x.R, locals)
		default:
			c.predicate(e, locals)
		}
	case *NotExpr, *ExistsExpr:
		c.predicate(e, locals)
	default:
		c.fail()
	}
}

// predicate validates e in boolean position (evalBool).
func (c *exprCheck) predicate(e Expr, locals map[string]bool) {
	switch x := e.(type) {
	case *BinExpr:
		switch x.Op {
		case "and", "or":
			c.predicate(x.L, locals)
			c.predicate(x.R, locals)
		case "=", "!=", "<", "<=", ">", ">=", "like":
			c.operand(x.L, locals)
			c.operand(x.R, locals)
		default:
			c.fail() // arithmetic in predicate position: evaluation error
		}
	case *NotExpr:
		c.predicate(x.E, locals)
	case *ExistsExpr:
		inner := c.path(x.In, locals)
		inner = withLocal(inner, x.Var)
		c.predicate(x.Cond, inner)
	case *ConstExpr, *TimeRefExpr:
	case *PathValueExpr:
		c.path(x.Path, locals)
	default:
		c.fail() // aggregates and unknown nodes are not predicates
	}
}

// path validates an expression-embedded path and returns the local scope
// extended with the annotation variables the path binds along the way.
func (c *exprCheck) path(p *PathExpr, locals map[string]bool) map[string]bool {
	if locals[p.Head] {
		// Locally bound (exists variable or annotation variable).
	} else if gi, ok := c.b.varGen[p.Head]; ok {
		if c.deps == nil {
			c.deps = make(map[int]bool)
		}
		c.deps[gi] = true
	} else if _, ok := c.b.graphs[p.Head]; ok {
		c.b.recordDB(p.Head)
	} else {
		c.b.missing = append(c.b.missing, p.Head)
		c.fail()
		return locals
	}
	for _, s := range p.Steps {
		if s.Group != nil || s.Hash {
			if s.Arc != nil || s.Node != nil {
				c.fail() // evaluator ignores these; keep on written order
				return locals
			}
			continue
		}
		if s.Arc != nil {
			switch s.Arc.Op {
			case OpAdd, OpRem:
				locals = withLocal(locals, s.Arc.AtVar)
			case OpAt:
				c.operand(s.Arc.AtExpr, locals)
			default:
				c.fail() // <cre>/<upd> before a label
				return locals
			}
		}
		if s.Node != nil {
			switch s.Node.Op {
			case OpCre:
				locals = withLocal(locals, s.Node.AtVar)
			case OpUpd:
				locals = withLocal(locals, s.Node.AtVar)
				locals = withLocal(locals, s.Node.FromVar)
				locals = withLocal(locals, s.Node.ToVar)
			case OpAt:
				c.operand(s.Node.AtExpr, locals)
			default:
				c.fail() // <add>/<rem> after a label
				return locals
			}
		}
	}
	return locals
}

// withLocal copy-extends a local scope (scopes are tiny; copying keeps
// sibling branches independent).
func withLocal(locals map[string]bool, v string) map[string]bool {
	if v == "" {
		return locals
	}
	next := make(map[string]bool, len(locals)+1)
	for k := range locals {
		next[k] = true
	}
	next[v] = true
	return next
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
