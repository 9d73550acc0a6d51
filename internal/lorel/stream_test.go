package lorel

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// itemEngine builds an engine over a flat OEM database: the root carries n
// "item" arcs to atomic integer nodes 0..n-1 in insertion order, with the
// value `witness` placed at position pos instead of pos's natural value.
func itemEngine(t testing.TB, n, pos int, witness int64) *Engine {
	t.Helper()
	db := oem.New()
	for i := 0; i < n; i++ {
		v := int64(i) + 1000
		if i == pos {
			v = witness
		}
		c := db.CreateNode(value.Int(v))
		if err := db.AddArc(db.Root(), "item", c); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine()
	e.Register("guide", NewOEMGraph(db))
	return e
}

// existsBindings runs an exists query against a database whose witness sits
// at position pos and returns the bindings stat (candidates examined).
func existsBindings(t *testing.T, pos int) int64 {
	t.Helper()
	e := itemEngine(t, 500, pos, 7)
	_, tr := tracedQuery(t, e, `select guide where exists X in guide.item : X = 7`)
	return tr.Stats()["bindings"]
}

// TestExistsShortCircuit is the regression test for the exists
// over-materialization bug: the evaluator used to expand the full binding
// list of the exists path before testing a single candidate, so an exists
// whose witness was the first candidate still paid for all 500. The
// streaming walk must do work proportional to the witness's position.
func TestExistsShortCircuit(t *testing.T) {
	early := existsBindings(t, 0)
	late := existsBindings(t, 499)
	if early > 8 {
		t.Errorf("early witness examined %d candidates, want at most a handful", early)
	}
	if late < 400 {
		t.Errorf("late witness examined %d candidates, want ~500", late)
	}
	if early*10 >= late {
		t.Errorf("early witness (%d bindings) not an order cheaper than late (%d)", early, late)
	}
}

// TestExistsNoWitness: when no candidate satisfies, every candidate must
// still be examined and the result must be empty — short-circuiting must
// not turn into under-evaluation.
func TestExistsNoWitness(t *testing.T) {
	e := itemEngine(t, 100, 0, 1000) // witness value 7 nowhere present
	res, tr := tracedQuery(t, e, `select guide where exists X in guide.item : X = 7`)
	if len(res.Rows) != 0 {
		t.Errorf("want no rows, got %d", len(res.Rows))
	}
	if b := tr.Stats()["bindings"]; b < 100 {
		t.Errorf("unsatisfied exists examined only %d candidates, want all 100", b)
	}
}

// TestExistentialNullBindNoShadow is the regression test for the
// null-binding shadow bug: an empty existential generator null-binds its
// annotation variables, and used to null-bind even variables already bound
// by an enclosing strict generator — wiping out, e.g., the T bound by
// <add at T> when a where-clause path reusing T matched nothing.
func TestExistentialNullBindNoShadow(t *testing.T) {
	e, _, _ := paperEngine(t)

	// Baseline: the (R, T) pairs the strict generator produces.
	base, err := e.Query(`select T from guide.<add at T>restaurant R`)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rows) == 0 {
		t.Fatal("baseline query produced no rows")
	}

	// The hoistable path R.<rem at T>zzz matches nothing (no zzz arcs), so
	// its existential generator is empty and null-binds. The disjunct
	// T >= 1Jan80 is then the only way a row survives — true for every
	// real add-time, false for a shadowed null T.
	// Compare the T column values only: the rem annotation in the where
	// clause legitimately changes T's default column label, but the times
	// themselves must be the strict generator's, not nulls.
	times := func(res *Result) []string {
		var out []string
		for _, row := range res.Rows {
			v, ok := row.Cells[0].Value()
			if !ok {
				out = append(out, "<null>")
				continue
			}
			out = append(out, v.String())
		}
		return out
	}
	want := fmt.Sprint(times(base))

	got, err := e.Query(`select T from guide.<add at T>restaurant R where R.<rem at T>zzz = "x" or T >= 1Jan80`)
	if err != nil {
		t.Fatal(err)
	}
	if g := fmt.Sprint(times(got)); g != want {
		t.Errorf("empty existential generator shadowed bound T: want %s, got %s", want, g)
	}
}

// TestParseCacheRotation exercises the two-generation parse cache: a
// standing query must keep its parsed form across cache churn past the
// limit (promotion from the old generation), total retention must stay
// bounded, and an entry idle for two full generations must be dropped.
func TestParseCacheRotation(t *testing.T) {
	e := NewEngine()
	ctx := t.Context()
	const standing = `select guide.restaurant`

	q1, err := e.cachedQuery(ctx, standing)
	if err != nil {
		t.Fatal(err)
	}

	churn := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := e.cachedQuery(ctx, fmt.Sprintf("select guide.l%d", i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// One generation of churn rotates the standing entry into the old
	// generation; re-requesting it must return the same parsed object.
	churn(0, cacheLimit)
	q2, err := e.cachedQuery(ctx, standing)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Error("standing query re-parsed after one generation of churn; want promotion from old generation")
	}

	// Bounded retention: never more than two generations resident.
	churn(cacheLimit, 3*cacheLimit)
	if total := len(e.cache) + len(e.cacheOld); total > 2*cacheLimit {
		t.Errorf("cache retains %d entries, want <= %d", total, 2*cacheLimit)
	}

	// The standing entry was not touched during the last two generations
	// of churn, so it must have aged out: a fresh parse yields a new object.
	q3, err := e.cachedQuery(ctx, standing)
	if err != nil {
		t.Fatal(err)
	}
	if q1 == q3 {
		t.Error("standing query survived two untouched generations; eviction is not bounding the cache")
	}
}

// TestRowKeyAllocs guards the dedup hot path: appending a row key into a
// reused buffer must not allocate.
func TestRowKeyAllocs(t *testing.T) {
	row := Row{Cells: []Cell{
		{Label: "R", b: binding{kind: bValue, val: value.Str("thai garden")}},
		{Label: "T", b: binding{kind: bValue, val: value.Int(42)}},
	}}
	kb := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(200, func() {
		kb = row.appendKey(kb[:0])
	})
	if allocs != 0 {
		t.Errorf("row.appendKey allocates %.1f per call on a warm buffer, want 0", allocs)
	}
}

// TestStepMatchAllocs guards the per-arc label match: once a step context
// is initialized, matching candidate labels must not allocate, interned or
// not.
func TestStepMatchAllocs(t *testing.T) {
	label := "restaurant"
	symbol.Intern(label)
	var st stepCtx
	st.init(&PathStep{Label: label})
	if !st.match(label) {
		t.Fatal("step does not match its own label")
	}
	allocs := testing.AllocsPerRun(200, func() {
		st.match(label)
		st.match("other")
	})
	if allocs != 0 {
		t.Errorf("stepCtx.match allocates %.1f per call, want 0", allocs)
	}
}

// joinEngine builds a guide of n restaurants, each with a name, a cuisine
// and a price, of which exactly `hits` are thai and cheap; the prices of
// those are then updated once, so they alone carry <upd> annotations.
func joinEngine(t testing.TB, n, hits int) *Engine {
	t.Helper()
	b := oem.NewBuilder()
	var prices []oem.NodeID
	for i := 0; i < n; i++ {
		r := b.ComplexArc(b.Root(), "restaurant")
		b.AtomArc(r, "name", value.Str(fmt.Sprintf("r%04d", i)))
		cuisine, price := "diner", int64(50)
		if i%(n/hits) == 0 && len(prices) < hits {
			cuisine, price = "thai", 5
		}
		b.AtomArc(r, "cuisine", value.Str(cuisine))
		p := b.AtomArc(r, "price", value.Int(price))
		if cuisine == "thai" {
			prices = append(prices, p)
		}
	}
	var ops change.Set
	for _, p := range prices {
		ops = append(ops, change.UpdNode{Node: p, Value: value.Int(7)})
	}
	d, err := doem.FromHistory(b.Build(), change.History{{At: timestamp.MustParse("1Jan97"), Ops: ops}})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine()
	e.Register("guide", d)
	return e
}

// TestBindingLoopAllocsFollowRows guards the binding loop: a query's
// allocations follow the rows it returns, not the bindings it examines.
// Ten times the restaurants with the same handful of rows must cost less
// than twice the allocations (the parent commit paid ~10x: a dedup map, a
// chain node and a closure per binding).
func TestBindingLoopAllocsFollowRows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, q := range []string{
		`select N from guide.restaurant R, R.name N, R.cuisine C, R.price P where C = "thai" and P < 10`,
		`select N, T, NV from guide.restaurant R, R.name N, R.price<upd at T to NV> where T > "1996-12-31T00:00:00Z" and NV > 6`,
	} {
		var allocs [2]float64
		for i, n := range []int{200, 2000} {
			e := joinEngine(t, n, 5)
			res, err := e.Query(q) // also warms the parse and plan caches
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Rows) != 5 {
				t.Fatalf("%d restaurants: %d rows, want 5: %s", n, len(res.Rows), q)
			}
			allocs[i] = testing.AllocsPerRun(10, func() {
				if _, err := e.Query(q); err != nil {
					t.Fatal(err)
				}
			})
		}
		t.Logf("%.0f allocs on 200 restaurants, %.0f on 2000: %s", allocs[0], allocs[1], q)
		if allocs[1] >= 2*allocs[0] {
			t.Errorf("allocations follow bindings: %.0f on 200 restaurants, %.0f on 2000: %s", allocs[0], allocs[1], q)
		}
	}
}

// bothWays evaluates q and holds every database-rooted path in it to the
// oracle: the walker's matches over the engine's graph must be the
// oracle's, in the oracle's order. With parsed set the query is evaluated
// as parsed, not canonicalized, so its multi-step paths reach the walker
// whole instead of as single-step generators. It returns q's result.
func bothWays(t *testing.T, e *Engine, q string, parsed bool) *Result {
	t.Helper()
	pq, err := Parse(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var res *Result
	if parsed {
		res, err = e.Eval(pq)
	} else {
		res, err = e.Query(q)
	}
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	pq.WalkPaths(func(p *PathExpr) {
		if got, want := walkerVsOracle(t, e, p); got != want {
			t.Errorf("%s: path %s:\nwalker:\n%s\noracle:\n%s", q, p, got, want)
		}
	})
	return res
}

// walkerVsOracle renders the matches of p from its database root, walked
// and by the oracle. Variable-headed paths, whose heads depend on the
// tuple, render empty both ways.
func walkerVsOracle(t *testing.T, e *Engine, p *PathExpr) (got, want string) {
	t.Helper()
	ev := e.newEvaluation(context.Background())
	g, ok := ev.graphs[p.Head]
	if !ok {
		return "", ""
	}
	ms, err := walkerMatches(ev, ev.newWalker(p))
	if err != nil {
		t.Fatalf("walking %s: %v", p, err)
	}
	return renderMatches(ms), renderMatches(oraclePath(p, nodeBinding(g, g.Root()), ev.env.lookup))
}

// count returns the single integer a `select count(P)` query yields, which
// must be the number of P's matches the oracle enumerates.
func count(t *testing.T, e *Engine, q string) int64 {
	t.Helper()
	res := bothWays(t, e, q, false)
	if len(res.Rows) != 1 {
		t.Fatalf("%s: %d rows, want 1", q, len(res.Rows))
	}
	v, _ := res.Rows[0].Cells[0].Value()
	pq, _ := Parse(q)
	_, want := walkerVsOracle(t, e, pq.Select[0].Expr.(*AggExpr).Path)
	if n := int64(strings.Count(want, "\n")); v.AsInt() != n {
		t.Errorf("%s = %d, oracle enumerates %d matches", q, v.AsInt(), n)
	}
	return v.AsInt()
}

// TestWalkerDedup pins the per-step first-occurrence dedup now that its set
// is built lazily from scratch and skipped where a step cannot repeat a
// node: every case a step can deliver a node twice must still yield it
// once, binding steps must never be deduped, and the order of first
// occurrences must not move.
func TestWalkerDedup(t *testing.T) {
	// root -a-> p1, p2, p3; the b-children overlap (c1 under all three, c2
	// under two), and x reaches c1 and c2 through two labels (ab, ac).
	b := oem.NewBuilder()
	p1, p2, p3 := b.ComplexArc(b.Root(), "a"), b.ComplexArc(b.Root(), "a"), b.ComplexArc(b.Root(), "a")
	c1 := b.AtomArc(p1, "b", value.Int(1))
	c2 := b.AtomArc(p1, "b", value.Int(2))
	b.Arc(p2, "b", c2)
	c3 := b.AtomArc(p2, "b", value.Int(3))
	b.Arc(p2, "b", c1)
	b.Arc(p3, "b", c1)
	x := b.ComplexArc(b.Root(), "x")
	b.Arc(x, "ab", c1)
	b.Arc(x, "ac", c1)
	b.Arc(x, "ab", c2)
	b.Arc(p3, "back", b.Root()) // a cycle through the root
	db := b.Build()
	e := NewEngine()
	e.Register("guide", NewOEMGraph(db))

	if n := count(t, e, `select count(guide.a.b)`); n != 3 {
		t.Errorf("children shared between parents: count(guide.a.b) = %d, want 3", n)
	}
	if n := count(t, e, `select count(guide.x.a%)`); n != 2 {
		t.Errorf("one child through two glob-matched labels: count(guide.x.a%%) = %d, want 2", n)
	}
	if n := count(t, e, `select count(guide.x.%)`); n != 2 {
		t.Errorf("bare glob from one head: count(guide.x.%%) = %d, want 2", n)
	}
	if n, want := count(t, e, `select count(guide.#)`), int64(len(db.Nodes())); n != want {
		t.Errorf("closure over a cycle: count(guide.#) = %d, want %d", n, want)
	}
	// root -> 50 a -> one shared b -> 50 c -> one shared leaf: more than
	// seenScan distinct nodes at a step, so its set migrates to the map.
	we := NewEngine()
	we.Register("guide", NewOEMGraph(buildFanout(50)))
	if n := count(t, we, `select count(guide.a.b.c)`); n != 50 {
		t.Errorf("wide fanout under a shared node: count(guide.a.b.c) = %d, want 50", n)
	}
	if n := count(t, we, `select count(guide.a.b.c.leaf)`); n != 1 {
		t.Errorf("shared leaf under a wide fanout: count(guide.a.b.c.leaf) = %d, want 1", n)
	}

	// First-occurrence order: the whole two-step path in one walk.
	res := bothWays(t, e, `select X from guide.a.b X`, true)
	var got []oem.NodeID
	for _, row := range res.Rows {
		got = append(got, row.Cells[0].Node())
	}
	if want := []oem.NodeID{c1, c2, c3}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("first-occurrence order: got %v, want %v", got, want)
	}
	// The same walk examines each shared child once, not once per parent.
	pq, err := Parse(`select X from guide.a.b X`)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("dedup")
	defer obs.SetEnabled(obs.SetEnabled(true))
	if _, err := e.EvalContext(obs.WithTrace(t.Context(), tr), pq); err != nil {
		t.Fatal(err)
	}
	if n := tr.Stats()["bindings"]; n != 3 {
		t.Errorf("guide.a.b examined %d bindings, want 3 (one per distinct child)", n)
	}

	// Binding steps are never deduped: an arc added, removed and added again
	// matches <add at T> once per annotation, a node updated twice matches
	// <upd at T> twice — even though arc and node are the same each time.
	hb := oem.NewBuilder()
	root := hb.Root()
	n := hb.AtomArc(root, "x", value.Int(0))
	day := func(d int) timestamp.Time { return timestamp.MustParse(fmt.Sprintf("%dJan97", d)) }
	d, err := doem.FromHistory(hb.Build(), change.History{
		{At: day(1), Ops: change.Set{change.UpdNode{Node: n, Value: value.Int(1)}, change.CreNode{Node: 90, Value: value.Int(9)}, change.AddArc{Parent: root, Label: "y", Child: 90}}},
		{At: day(2), Ops: change.Set{change.UpdNode{Node: n, Value: value.Int(2)}, change.AddArc{Parent: root, Label: "keep", Child: 90}, change.RemArc{Parent: root, Label: "y", Child: 90}}},
		{At: day(3), Ops: change.Set{change.AddArc{Parent: root, Label: "y", Child: 90}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	he := NewEngine()
	he.Register("guide", d)
	if n := count(t, he, `select count(guide.<add at T>y)`); n != 2 {
		t.Errorf("count(guide.<add at T>y) = %d, want 2 (one per add annotation)", n)
	}
	if n := count(t, he, `select count(guide.x<upd at T>)`); n != 2 {
		t.Errorf("count(guide.x<upd at T>) = %d, want 2 (one per upd annotation)", n)
	}
	if res := bothWays(t, he, `select T from guide.<add at T>y Y`, false); len(res.Rows) != 2 {
		t.Errorf("select T from guide.<add at T>y Y: %d rows, want 2", len(res.Rows))
	}
}

// TestEnvironmentScoping pins the scoping rules the in-place environment
// must keep: inner bindings shadow outer ones of the same name and are
// undone when their scope ends, and operands that denote sets keep their
// set semantics.
func TestEnvironmentScoping(t *testing.T) {
	e, pids, _ := paperEngine(t)
	col := func(res *Result) []string {
		var out []string
		for _, row := range res.Rows {
			v, _ := row.Cells[len(row.Cells)-1].Value()
			out = append(out, v.String())
		}
		return out
	}

	// An annotation variable reusing an outer name shadows it for the rest
	// of the tuple: T is the comment's add-time, not the restaurant's.
	want := col(bothWays(t, e, `select T2 from guide.<add at T>restaurant R, R.<add at T2>comment C`, false))
	got := col(bothWays(t, e, `select T from guide.<add at T>restaurant R, R.<add at T>comment C`, false))
	if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("reused annotation variable: got %v, want %v", got, want)
	}
	// ...and the shadow ends with the inner generator's scope: where the
	// comment generator is existential and empty, the outer T shows through
	// (TestExistentialNullBindNoShadow holds the null-binding half of this).
	res := bothWays(t, e, `select R, T from guide.<add at T>restaurant R where R.<add at T>zzz = 1 or T >= 1Jan80`, false)
	if len(res.Rows) == 0 {
		t.Error("outer T lost after an empty inner generator reusing its name")
	}

	// exists nested twice, the inner one reusing the outer variable's name:
	// the inner X ranges over the outer X's comments and shadows it only
	// inside its own condition.
	nested := `select R from guide.restaurant R where exists X in R.parking : ((exists X in X.comment : X = "usually full") and exists Y in X.address : Y = "Lytton lot 2")`
	plain := `select R from guide.restaurant R where exists P in R.parking : ((exists C in P.comment : C = "usually full") and exists Y in P.address : Y = "Lytton lot 2")`
	gotIDs, wantIDs := ids(bothWays(t, e, nested, false)), ids(bothWays(t, e, plain, false))
	if len(wantIDs) == 0 || !containsID(wantIDs, pids.Bangkok) || fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
		t.Errorf("nested exists reusing a name: got %v, want %v", gotIDs, wantIDs)
	}

	// A select item that still denotes a set fans out into one row per
	// member; a comparison over a set is true when any member satisfies it.
	oe, _ := oemEngine(t)
	fan := bothWays(t, oe, `select R.name, R.# from guide.restaurant R where R.# = "Lytton lot 2"`, true)
	perName := map[string]int{}
	for _, row := range fan.Rows {
		v, _ := row.Cells[0].Value()
		perName[v.AsString()]++
	}
	if len(perName) != 1 || perName["Bangkok Cuisine"] < 5 {
		t.Errorf("set-valued select item: rows per restaurant %v; want a fan-out for Bangkok Cuisine, the one restaurant that still reaches the parking lot", perName)
	}
}

// walkerMatches runs a prepared walker under the evaluation's current
// environment and collects its matches with the annotation variables each
// one had bound when it was yielded.
func walkerMatches(ev *evaluation, w *pathWalker) ([]oracleMatch, error) {
	var got []oracleMatch
	base := ev.env.mark()
	w.yield = func(b binding) error {
		got = append(got, oracleMatch{b: b, vars: slices.Clone(ev.env.vars[base:])})
		return nil
	}
	err := w.run()
	return got, err
}

// renderMatches renders matches one per line, order preserved.
func renderMatches(ms []oracleMatch) string {
	var b strings.Builder
	for _, m := range ms {
		fmt.Fprintf(&b, "%d:%d", m.b.kind, m.b.id)
		if m.b.hasAsOf {
			fmt.Fprintf(&b, "@%s", m.b.asOf)
		}
		for _, v := range m.vars {
			fmt.Fprintf(&b, " %s=%s", v.name, v.b.val)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// scanGraph serves LabelSeeker by scanning the base Graph methods, so the
// walker's seeker paths are held to the oracle on answers that are right
// by construction.
type scanGraph struct{ Graph }

func labeled(arcs []oem.Arc, sym symbol.ID) []oem.Arc {
	var out []oem.Arc
	for _, a := range arcs {
		if a.Label == symbol.String(sym) {
			out = append(out, a)
		}
	}
	return out
}

func (g scanGraph) OutLabeled(n oem.NodeID, sym symbol.ID) []oem.Arc { return labeled(g.Out(n), sym) }

func (g scanGraph) OutAllLabeled(n oem.NodeID, sym symbol.ID) []oem.Arc {
	return labeled(g.OutAll(n), sym)
}

// uninternedGraph adds one arc whose label never went through the symbol
// table, as a graph whose arc constructor skipped symbol.Canon would. Its
// label seeker is scanGraph's over the base graph, so like a symbol-keyed
// index it has never seen that label.
type uninternedGraph struct {
	scanGraph
	extra oem.Arc
}

func (g uninternedGraph) with(n oem.NodeID, arcs []oem.Arc) []oem.Arc {
	if n != g.extra.Parent {
		return arcs
	}
	return append(append([]oem.Arc(nil), arcs...), g.extra)
}

func (g uninternedGraph) Out(n oem.NodeID) []oem.Arc    { return g.with(n, g.scanGraph.Out(n)) }
func (g uninternedGraph) OutAll(n oem.NodeID) []oem.Arc { return g.with(n, g.scanGraph.OutAll(n)) }
func (g uninternedGraph) OutAt(n oem.NodeID, t timestamp.Time) []oem.Arc {
	return g.with(n, g.scanGraph.OutAt(n, t))
}

// TestExactStepLookupMiss: an exact label the symbol table does not know
// is not probed through the label seeker; the walker and path groups fall
// to the scan, which still finds arcs carrying that label, and evaluating
// the query does not intern it.
func TestExactStepLookupMiss(t *testing.T) {
	label := strings.Repeat("uninterned", 2)
	if _, ok := symbol.Lookup(label); ok {
		t.Fatalf("%q is already interned", label)
	}
	var child oem.NodeID
	db := newOEMWith(t, func(b *builderT) {
		b.atomArc(b.root(), "a", value.Int(1))
		child = b.atomArc(b.root(), "b", value.Int(2))
	})
	g := uninternedGraph{scanGraph{NewOEMGraph(db)}, oem.Arc{Parent: db.Root(), Label: label, Child: child}}
	e := NewEngine()
	e.Register("g", g)
	for _, q := range []string{
		`select X from g.` + label + ` X`,
		`select X from g.(` + label + `) X`,
		`select X from g.(x|` + label + `) X`,
	} {
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got := res.FirstColumnNodes(); len(got) != 1 || got[0] != child {
			t.Errorf("%s: got %v, want [%s]\n%s", q, got, child, res)
		}
	}
	if _, ok := symbol.Lookup(label); ok {
		t.Errorf("evaluating queries over %q interned it", label)
	}
}

// randomSteps draws one to three path steps over the Churn labels, covering
// every step kind: exact, quoted, '%' globs, '#', groups, <add>/<rem>/<at>
// arc steps and <cre>/<upd>/<at> node steps. An <at> reads a literal, the
// outer variable T0 or a time variable an earlier step bound.
func randomSteps(rng *rand.Rand) string {
	lbl := func() string { return []string{"a", "b", "c", "d"}[rng.Intn(4)] }
	times := []string{"T0"}
	at := func() string {
		switch rng.Intn(3) {
		case 0:
			return times[rng.Intn(len(times))]
		case 1:
			return fmt.Sprintf("%dJan97", 1+rng.Intn(12))
		}
		return `"1997-01-06T12:00:00Z"`
	}
	var steps []string
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		v := fmt.Sprintf("V%d", i)
		var s string
		switch rng.Intn(13) {
		case 0, 1:
			s = lbl()
		case 2:
			s = fmt.Sprintf("%q", lbl())
		case 3:
			s = []string{"%", "a%", "%b"}[rng.Intn(3)]
		case 4:
			s = "#"
		case 5:
			s = []string{"(a|b)", "(a.b|c)*", "(c|d.a)+", "(b)?", "(%.a)*"}[rng.Intn(5)]
		case 6:
			s = fmt.Sprintf("<%s at %s>%s", []string{"add", "rem"}[rng.Intn(2)], v, lbl())
			times = append(times, v)
		case 7:
			s = fmt.Sprintf("<%s>%s", []string{"add", "rem"}[rng.Intn(2)], lbl())
		case 8, 9:
			s = fmt.Sprintf("<at %s>%s", at(), lbl())
		case 10:
			s = fmt.Sprintf("%s<cre at %s>", lbl(), v)
			times = append(times, v)
		case 11:
			s = []string{lbl() + "<upd>", fmt.Sprintf("%s<upd at %s from O%d to N%d>", lbl(), v, i, i)}[rng.Intn(2)]
			times = append(times, v)
		case 12:
			s = fmt.Sprintf("%s<at %s>", lbl(), at())
		}
		steps = append(steps, s)
	}
	return strings.Join(steps, ".")
}

// parsePath parses the path of `select X from <src> X` without
// canonicalizing it, so its steps reach the walker as written.
func parsePath(t *testing.T, src string) *PathExpr {
	t.Helper()
	q, err := Parse("select X from " + src + " X")
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return q.From[0].Path
}

// TestWalkerMatchesOracle is the walker's differential test. Over Churn
// histories (shared children, cycles, removed and re-added arcs), on the
// raw DOEM database, its current snapshot as plain OEM and a graph serving
// LabelSeeker by scanning, each randomly drawn path must yield exactly the
// oracle's matches in the oracle's order. The walker's <at> steps read each
// graph's OutAt (doem.Database.OutAt, OEMGraph.OutAt), which the oracle
// recomputes from OutAll and ArcLiveAt. Matches are compared from the
// database root, and from bound heads — current nodes, time-travel
// bindings, a value and null — with the walker prepared once and rerun for
// every head, as generators rerun it for every outer binding.
func TestWalkerMatchesOracle(t *testing.T) {
	compared, matched := 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		initial, h := guidegen.GenerateChurn(seed, 40, 20, 8)
		d, err := doem.FromHistory(initial, h)
		if err != nil {
			t.Fatal(err)
		}
		t0 := valueBinding(value.Time(h[len(h)/2].At))
		for _, g := range []Graph{d, NewOEMGraph(d.Current()), scanGraph{d}} {
			e := NewEngine()
			e.Register("guide", g)
			ev := e.newEvaluation(context.Background())
			ev.env.bind("T0", t0)
			root := nodeBinding(g, g.Root())
			heads := []binding{valueBinding(value.Int(1)), {kind: bNull}}
			for _, src := range []string{"guide.#", "guide.<at T0>%"} {
				for _, m := range oraclePath(parsePath(t, src), root, ev.env.lookup) {
					heads = append(heads, m.b)
				}
			}
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 60; i++ {
				steps := randomSteps(rng)
				check := func(p *PathExpr, w *pathWalker, head binding) {
					got, err := walkerMatches(ev, w)
					if err != nil {
						t.Fatalf("seed %d %T %s: %v", seed, g, p, err)
					}
					want := oraclePath(p, head, ev.env.lookup)
					if gs, ws := renderMatches(got), renderMatches(want); gs != ws {
						t.Fatalf("seed %d %T %s from %d:%d:\nwalker:\n%s\noracle:\n%s", seed, g, p, head.kind, head.id, gs, ws)
					}
					compared++
					if len(want) > 0 {
						matched++
					}
				}
				p := parsePath(t, "guide."+steps)
				check(p, ev.newWalker(p), root)
				hp := parsePath(t, "H."+steps)
				w := ev.newWalker(hp)
				for _, head := range heads {
					m := ev.env.mark()
					ev.env.bind("H", head)
					check(hp, w, head)
					ev.env.release(m)
				}
			}
		}
	}
	t.Logf("%d path comparisons, %d with matches", compared, matched)
	if matched < 500 {
		t.Errorf("only %d comparisons had matches, want >= 500", matched)
	}
}
