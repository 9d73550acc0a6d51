package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/chorel"
	"repro/internal/doem"
	"repro/internal/index"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
)

// query_history: read-only Chorel over a large monolithic history. Two
// closed-loop callers share one indexed chorel.DB; one op is query text ->
// Result -> String().

// verifyShare is the share of query ops re-evaluated, outside the timed
// phase, on a lorel.Engine over the raw un-indexed database.
const verifyShare = 0.02

// sampleOps picks the ops to verify: a seeded verifyShare of n, at least
// one.
func sampleOps(rng *rand.Rand, n int) map[int]bool {
	k := int(float64(n) * verifyShare)
	if k < 1 {
		k = 1
	}
	picked := make(map[int]bool, k)
	for _, i := range rng.Perm(n)[:k] {
		picked[i] = true
	}
	return picked
}

// rowKeys renders a result as a sorted list of rows, so a translated
// result can be compared with a direct one: node cells that mapNode knows
// (encoding objects standing for DOEM objects) render as the mapped id,
// any other cell as its value.
func rowKeys(res *lorel.Result, mapNode func(oem.NodeID) (oem.NodeID, bool)) []string {
	keys := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var b strings.Builder
		for _, c := range row.Cells {
			id, mapped := oem.NodeID(0), false
			if c.IsNode() {
				id, mapped = mapNode(c.Node())
			}
			switch {
			case c.IsNull():
				b.WriteString("null")
			case mapped:
				b.WriteString(id.String())
			default:
				v, _ := c.Value()
				b.WriteString(v.String())
			}
			b.WriteByte('|')
		}
		keys = append(keys, b.String())
	}
	sort.Strings(keys)
	return keys
}

// kept is what the timed phase keeps of an op picked for verification.
type kept struct {
	op  queryOp
	out string
	res *lorel.Result // xlate only
}

func runQueryHistory(r *rep) error {
	in := genQueryHistory(r.seed, r.sz)
	d, err := doem.FromHistory(in.Initial, in.History)
	if err != nil {
		return err
	}
	db := chorel.New("guide", d)
	encStart := time.Now()
	db.Encoding()
	encEnd := time.Now()
	var ig *index.Graph
	if r.tr != nil {
		r.tr.beginOp(-1)
		r.tr.inSitu("encoding.encode", "", encStart, encEnd)
		// The DB's own index is built by its first query; time the same
		// build on a second wrapper over the same database.
		ig = index.NewGraph(d)
		r.tr.replay("index.build", "", "", func() { ig.UpdTriples(d.Root()) })
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r.arm(cancel)
	defer r.disarm()

	exec := func(op queryOp) (*lorel.Result, string, error) {
		var res *lorel.Result
		var err error
		if op.Class == "xlate" {
			res, err = db.QueryTranslatedContext(ctx, op.Text)
		} else {
			res, err = db.QueryContext(ctx, op.Text)
		}
		if err != nil {
			return nil, "", err
		}
		return res, res.String(), nil
	}
	for _, op := range in.Warmup {
		if _, _, err := exec(op); err != nil {
			return fmt.Errorf("warm-up %q: %w", op.Text, err)
		}
	}

	perCaller := r.sz.run() / queryCallers
	var picked [queryCallers]map[int]bool
	rng := rngFor(r.seed, "query_history/verify")
	for c := range picked {
		picked[c] = sampleOps(rng, perCaller)
	}
	var keptOps [queryCallers][]kept

	caller := func(c int) {
		for i, op := range in.Callers[c][:perCaller] {
			r.tick()
			t0 := time.Now()
			res, out, err := exec(op)
			lat := time.Since(t0)
			if err != nil {
				r.fail("%s %q: %v", op.Class, op.Text, err)
			} else if picked[c][i] {
				k := kept{op: op, out: out}
				if op.Class == "xlate" {
					k.res = res
				}
				keptOps[c] = append(keptOps[c], k)
			}
			r.done(c, lat, err == nil)
		}
	}
	r.beginTimed()
	if r.tr != nil {
		// Layer replays and counter deltas need one op at a time: the
		// traced repetition runs the callers' lists one after the other.
		qt := newQueryTrace(r.tr, db, ig)
		for c := 0; c < queryCallers; c++ {
			for i, op := range in.Callers[c][:perCaller] {
				r.tick()
				r.tr.beginOp(c*perCaller + i)
				lat, err := qt.op(ctx, op)
				if err != nil {
					r.fail("%s %q: %v", op.Class, op.Text, err)
				}
				r.done(c, lat, err == nil)
			}
		}
		r.tr.count("doem.annotations", float64(d.NumAnnotations()))
	} else {
		var wg sync.WaitGroup
		for c := 0; c < queryCallers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				caller(c)
			}(c)
		}
		wg.Wait()
	}
	r.endTimed()

	// Outside the timed phase: the kept ops against the raw database.
	raw := lorel.NewEngine()
	raw.Register("guide", d)
	enc := db.Encoding()
	for c := range keptOps {
		for _, k := range keptOps[c] {
			want, err := raw.Query(k.op.Text)
			if err != nil {
				r.checkFailed("oracle %q: %v", k.op.Text, err)
				continue
			}
			if k.op.Class != "xlate" {
				if k.out != want.String() {
					r.checkFailed("%s %q: indexed result differs from the raw database's", k.op.Class, k.op.Text)
				}
				continue
			}
			// Section 5: translated rows, mapped back, equal direct rows.
			got := rowKeys(k.res, func(n oem.NodeID) (oem.NodeID, bool) {
				id, ok := enc.Rev[n]
				return id, ok
			})
			direct := rowKeys(want, func(n oem.NodeID) (oem.NodeID, bool) { return n, true })
			if strings.Join(got, "\n") != strings.Join(direct, "\n") {
				r.checkFailed("xlate %q: translated rows differ from direct evaluation", k.op.Text)
			}
		}
	}
	return nil
}

// queryTrace times one query op in situ and then replays each layer it
// went through, one public call at a time.
type queryTrace struct {
	tr *tracer
	db *chorel.DB
	// ig is a second index over the same database, for planning replays
	// (the DB does not expose its own).
	ig *index.Graph
	// trans evaluates translated queries over the encoding, as the DB's
	// private translation engine does.
	trans *lorel.Engine
	// Counters the engines maintain while obs collection is on.
	parseHit, parseMiss, planHit, planMiss, viewMiss *obs.Counter
}

func newQueryTrace(tr *tracer, db *chorel.DB, ig *index.Graph) *queryTrace {
	trans := lorel.NewEngine()
	trans.Register("guide", lorel.NewOEMGraph(db.Encoding().DB))
	return &queryTrace{
		tr: tr, db: db, ig: ig, trans: trans,
		parseHit:  obs.NewCounter("lorel_parse_cache_hits_total"),
		parseMiss: obs.NewCounter("lorel_parse_cache_misses_total"),
		planHit:   obs.NewCounter("lorel_plan_cache_hits_total"),
		planMiss:  obs.NewCounter("lorel_plan_cache_misses_total"),
		viewMiss:  obs.NewCounter("index_snapshot_cache_misses_total"),
	}
}

func (qt *queryTrace) op(ctx context.Context, op queryOp) (time.Duration, error) {
	tr := qt.tr
	xlate := op.Class == "xlate"
	ph, pm := qt.parseHit.Value(), qt.parseMiss.Value()
	lh, lm := qt.planHit.Value(), qt.planMiss.Value()
	vm := qt.viewMiss.Value()
	stats := obs.NewTrace(op.Text)
	qctx := obs.WithTrace(ctx, stats)

	t0 := time.Now()
	var res *lorel.Result
	var err error
	if xlate {
		res, err = qt.db.QueryTranslatedContext(qctx, op.Text)
	} else {
		res, err = qt.db.QueryContext(qctx, op.Text)
	}
	tq := time.Now()
	if err != nil {
		return tq.Sub(t0), err
	}
	_ = res.String()
	t1 := time.Now()
	tr.inSitu("op", "", t0, t1)
	tr.add("chorel.query", "op", op.Class, t0, tq, false)
	tr.inSitu("lorel.emit", "op", tq, t1)

	tr.count("lorel.parse_hits", float64(qt.parseHit.Value()-ph))
	tr.count("lorel.parse_misses", float64(qt.parseMiss.Value()-pm))
	tr.count("lorel.plan_hits", float64(qt.planHit.Value()-lh))
	tr.count("lorel.plan_misses", float64(qt.planMiss.Value()-lm))
	tr.count("lorel.bindings", float64(stats.Stats()["bindings"]))
	tr.count("lorel.rows", float64(res.Len()))
	if op.Class == "at_hot" || op.Class == "at_cold" {
		tr.count("index.view_ops", 1)
		if qt.viewMiss.Value() == vm {
			tr.count("index.view_hit_ops", 1)
		}
	}

	// Replays, one public call per layer. A layer is replayed only when
	// the op exercised it: parse and canonicalize when the op missed the
	// parse cache, planning when it missed the plan cache, evaluation
	// always.
	const parent = "chorel.query"
	var q *lorel.Query
	var failure error
	timed := func(name string, fn func()) {
		if failure == nil {
			tr.replay(name, parent, op.Class, fn)
		}
	}
	if qt.parseMiss.Value() > pm || xlate { // the translated path never caches
		timed("lorel.parse", func() { q, failure = lorel.Parse(op.Text) })
		timed("lorel.canon", func() { failure = lorel.Canonicalize(q) })
	} else if q, failure = lorel.Parse(op.Text); failure == nil {
		failure = lorel.Canonicalize(q)
	}
	if xlate {
		var tq *lorel.Query
		timed("chorel.translate", func() { tq, failure = chorel.Translate(q) })
		timed("lorel.eval", func() {
			lorel.Rekey(tq)
			_, failure = qt.trans.Eval(tq)
		})
		return t1.Sub(t0), failure
	}
	if qt.planMiss.Value() > lm {
		// Planning alone: a fresh engine parses the text with the planner
		// off (filling its parse cache), then plans it with the planner on.
		planner := lorel.NewEngine()
		planner.Register("guide", qt.ig)
		planner.SetPlanning(false)
		if _, failure = planner.PlanDescription(op.Text); failure == nil {
			planner.SetPlanning(true)
			timed("lorel.plan", func() { _, failure = planner.PlanDescription(op.Text) })
		}
	}
	timed("lorel.eval", func() { _, failure = qt.db.Engine().Eval(q) })
	return t1.Sub(t0), failure
}
