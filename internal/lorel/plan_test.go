package lorel

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/obs"
	"repro/internal/timestamp"
)

// planned returns an engine over the paper guide with planning forced on.
func plannedEngine(t testing.TB) (*Engine, *doem.Database) {
	t.Helper()
	e, _, d := paperEngine(t)
	e.SetPlanning(true)
	return e, d
}

// TestPlanCacheHitAndReprepare: the second run of a query hits the plan
// cache; mutating the database underneath re-prepares instead of
// executing against stale cardinalities, and the re-prepared plan's
// results match written-order evaluation of the new state.
func TestPlanCacheHitAndReprepare(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	ev := guidegen.NewEvolver(11, 10)
	d := doem.New(ev.DB)
	e := NewEngine()
	e.Register("guide", d)
	e.SetPlanning(true)
	off := NewEngine()
	off.Register("guide", d)
	off.SetPlanning(false)

	const q = `select N from guide.restaurant R, R.name N where R.price < 20`
	if _, err := e.Query(q); err != nil {
		t.Fatalf("first run: %v", err)
	}
	hits0 := mPlanCacheHits.Value()
	if _, err := e.Query(q); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if mPlanCacheHits.Value() == hits0 {
		t.Error("second run of an unchanged query did not hit the plan cache")
	}

	at := timestamp.MustParse("1Jan97")
	for i := 0; i < 4; i++ {
		set := ev.Step(5)
		if len(set) == 0 {
			continue
		}
		if err := d.Apply(at, set); err != nil {
			t.Fatalf("apply step %d: %v", i, err)
		}
		rep0 := mPlanReprepares.Value()
		got, err := e.Query(q)
		if err != nil {
			t.Fatalf("post-apply run %d: %v", i, err)
		}
		if mPlanReprepares.Value() == rep0 {
			t.Fatalf("step %d: cached plan served without re-preparing after Apply", i)
		}
		want, err := off.Query(q)
		if err != nil {
			t.Fatalf("written-order run %d: %v", i, err)
		}
		if got.String() != want.String() {
			t.Fatalf("step %d: re-prepared plan diverges:\nplanned:\n%s\nwritten order:\n%s", i, got, want)
		}
		at = at.Add(86400e9)
	}
}

// TestPlanCacheMissingNamePin: a query whose head is unregistered is
// cached as unplannable, but registering the name later must invalidate
// that entry — the query then plans and runs.
func TestPlanCacheMissingNamePin(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	e, d := plannedEngine(t)
	const q = `select N from later.restaurant R, R.name N`
	if _, err := e.Query(q); err == nil {
		t.Fatal("query against an unregistered name should error")
	}
	unp0 := mPlanUnplannable.Value()
	if _, err := e.Query(q); err == nil {
		t.Fatal("second run should still error")
	}
	if mPlanUnplannable.Value() == unp0 {
		// The negative entry should have been served from cache — but
		// either way the query errors; nothing more to assert here.
		t.Log("negative plan entry re-prepared (acceptable)")
	}
	e.Register("later", d)
	got, err := e.Query(q)
	if err != nil {
		t.Fatalf("after registering the missing name: %v", err)
	}
	off := NewEngine()
	off.SetPlanning(false)
	off.Register("later", d)
	want, err := off.Query(q)
	if err != nil {
		t.Fatalf("written-order reference: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("stale negative entry survived Register:\nplanned:\n%s\nwritten order:\n%s", got, want)
	}
}

// TestUnplannableFallback: queries the validator rejects run the
// written-order plan and must behave identically to planning-off, errors
// included.
func TestUnplannableFallback(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	e, d := plannedEngine(t)
	off := NewEngine()
	off.SetPlanning(false)
	off.Register("guide", d)

	// A duplicate annotation variable shadows in written order's env
	// chain; the planner must stand aside rather than reproduce shadowing.
	dup := `select T from guide.<add at T>restaurant R, R.<add at T>name N`
	unp0 := mPlanUnplannable.Value()
	got, gerr := e.Query(dup)
	want, werr := off.Query(dup)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("fallback error mismatch: planned err=%v, written err=%v", gerr, werr)
	}
	if gerr == nil && got.String() != want.String() {
		t.Fatalf("fallback result diverges:\nplanned:\n%s\nwritten order:\n%s", got, want)
	}
	if mPlanUnplannable.Value() == unp0 {
		t.Error("duplicate-variable query was not counted unplannable")
	}

	// Arithmetic in predicate position errors at evaluation time; both
	// modes must return the same error.
	bad := `select R from guide.restaurant R where R.price + 1`
	_, gerr = e.Query(bad)
	_, werr = off.Query(bad)
	if gerr == nil || werr == nil {
		t.Fatalf("non-predicate where should error: planned=%v written=%v", gerr, werr)
	}
	if gerr.Error() != werr.Error() {
		t.Fatalf("error text diverges: planned %q, written %q", gerr, werr)
	}
}

// TestPlanDescription covers the three EXPLAIN shapes: a planned query
// (join order + pushdown), planning disabled, and an unplannable query.
func TestPlanDescription(t *testing.T) {
	e, _ := plannedEngine(t)
	lines, err := e.PlanDescription(`select N from guide.restaurant R, R.name N where R.price < 20`)
	if err != nil {
		t.Fatalf("PlanDescription: %v", err)
	}
	joined := strings.Join(lines, "\n")
	// The canonicalizer hoists R.price into an existential generator, so
	// the predicate is pushed onto its fresh variable.
	for _, want := range []string{"join order:", "est tuples:", "push: (_v1 < 20)"} {
		if !strings.Contains(joined, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, joined)
		}
	}

	lines, err = e.PlanDescription(`select T from guide.<add at T>restaurant R, R.<add at T>name N`)
	if err != nil {
		t.Fatalf("PlanDescription (unplannable): %v", err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "not plannable") {
		t.Errorf("unplannable EXPLAIN = %q", lines)
	}

	e.SetPlanning(false)
	lines, err = e.PlanDescription(`select guide.restaurant.name`)
	if err != nil {
		t.Fatalf("PlanDescription (disabled): %v", err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "disabled") {
		t.Errorf("disabled EXPLAIN = %q", lines)
	}
}

// TestPlannedTraceActuals: a traced planned query records per-generator
// actual and estimated cardinalities for EXPLAIN ANALYZE-style output.
func TestPlannedTraceActuals(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	e, _ := plannedEngine(t)
	const q = `select N from guide.restaurant R, R.name N where R.price < 20`
	tr := obs.NewTrace(q)
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := e.QueryContext(ctx, q); err != nil {
		t.Fatalf("traced query: %v", err)
	}
	s := tr.String()
	if !strings.Contains(s, "plan_actual_R") || !strings.Contains(s, "plan_est_R") {
		t.Errorf("trace missing planner actual/estimated cardinalities:\n%s", s)
	}
	if !strings.Contains(s, "plan") {
		t.Errorf("trace missing plan span:\n%s", s)
	}
}

// FuzzPlanCacheKey checks the injectivity contract the plan cache depends
// on: whenever two query texts canonicalize to the same cache key, they
// must be the same query — byte-identical results on the same database.
func FuzzPlanCacheKey(f *testing.F) {
	// Whitespace and formatting variants: same key, same results.
	f.Add("select guide.restaurant.name", "select  guide.restaurant.name")
	f.Add("select N from guide.restaurant R, R.name N",
		"select N from guide.restaurant R, R.name N where true")
	// Alias renaming: keys may or may not collide; results must agree if
	// they do.
	f.Add("select N from guide.restaurant R, R.name N",
		"select M from guide.restaurant S, S.name M")
	// Near-misses that must NOT collide: different label, different
	// constant, different operator, swapped generators.
	f.Add("select guide.restaurant.name", "select guide.restaurant.nam")
	f.Add("select R from guide.restaurant R where R.price < 20",
		"select R from guide.restaurant R where R.price < 21")
	f.Add("select R from guide.restaurant R where R.price < 20",
		"select R from guide.restaurant R where R.price <= 20")
	f.Add("select N from guide.restaurant R, R.name N",
		"select N from R.name N, guide.restaurant R")
	f.Add("select T from guide.<add at T>restaurant", "select T from guide.<rem at T>restaurant")
	f.Add(`select guide.<at "1Jan97">restaurant`, `select guide.<at "2Jan97">restaurant`)

	db, ids := guidegen.PaperGuide()
	d, err := doem.FromHistory(db, guidegen.PaperHistory(ids))
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, a, b string) {
		if len(a) > 512 || len(b) > 512 {
			t.Skip("oversized input")
		}
		qa := canonicalized(a)
		qb := canonicalized(b)
		if qa == nil || qb == nil {
			t.Skip("unparseable or non-canonical input")
		}
		if qa.key == "" || qb.key == "" {
			t.Fatalf("canonicalization left an empty plan-cache key: %q / %q", a, b)
		}
		if qa.key != qb.key {
			return
		}
		// Same key: the queries must be indistinguishable to the cache.
		e := NewEngine()
		e.Register("guide", d)
		ra, ea := e.EvalContext(context.Background(), qa)
		rb, eb := e.EvalContext(context.Background(), qb)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("key collision with diverging errors:\n%q -> %v\n%q -> %v", a, ea, b, eb)
		}
		if ea == nil && ra.String() != rb.String() {
			t.Fatalf("key collision with diverging results:\n%q:\n%s\n%q:\n%s", a, ra, b, rb)
		}
	})
}

// canonicalized parses and canonicalizes src, returning nil on any error.
func canonicalized(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		return nil
	}
	if err := Canonicalize(q); err != nil {
		return nil
	}
	return q
}

// TestCanonicalKeyDistinguishes pins the near-miss seeds deterministically
// (the fuzz target only checks them when the fuzz corpus runs).
func TestCanonicalKeyDistinguishes(t *testing.T) {
	pairs := [][2]string{
		{"select guide.restaurant.name", "select guide.restaurant.nam"},
		{"select R from guide.restaurant R where R.price < 20",
			"select R from guide.restaurant R where R.price < 21"},
		{"select R from guide.restaurant R where R.price < 20",
			"select R from guide.restaurant R where R.price <= 20"},
		{"select T from guide.<add at T>restaurant", "select T from guide.<rem at T>restaurant"},
		{`select guide.<at "1Jan97">restaurant`, `select guide.<at "2Jan97">restaurant`},
	}
	for _, p := range pairs {
		qa, qb := canonicalized(p[0]), canonicalized(p[1])
		if qa == nil || qb == nil {
			t.Fatalf("seed pair failed to canonicalize: %q / %q", p[0], p[1])
		}
		if qa.key == qb.key {
			t.Errorf("distinct queries share a cache key:\n%q\n%q\nkey: %s",
				p[0], p[1], fmt.Sprintf("%x", qa.key))
		}
	}
	// And the whitespace variant must collide (that is the point of
	// canonical keys: one cache entry per canonical query).
	qa, qb := canonicalized("select guide.restaurant.name"), canonicalized("select  guide.restaurant.name")
	if qa == nil || qb == nil || qa.key != qb.key {
		t.Error("whitespace variants should share a cache key")
	}
}
