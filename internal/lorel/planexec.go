package lorel

import (
	"sort"
	"strings"
	"sync"
)

// This file is the planned executor: it enumerates generators in the
// plan's order instead of written order, applies pushed conjuncts as soon
// as their variables are bound, and short-circuits existential search at
// the first satisfying completion. Its contract is byte-identical output
// with the written-order evaluator, which rests on three properties the
// validator in plan.go established: pushed conjuncts are pure and
// error-free (conjunction order cannot matter), existential variables
// never reach the select clause (collapsing completions per strict tuple
// cannot drop rows), and a generator's candidate list depends only on the
// bindings of its declared dependencies (a candidate's index is the same
// in any enumeration order, so written-order ranks are reconstructible).

// rankedRow carries a result row plus its written-order enumeration rank:
// the candidate indexes of the strict generators in written order,
// followed by the row's position within its tuple's built rows.
// Lexicographic rank order is exactly the order the written-order
// evaluator would first emit each row.
type rankedRow struct {
	row  Row
	rank []int32
}

func rankLess(a, b []int32) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// plannedExec is the per-evaluation (or per-worker) state of one planned
// execution.
type plannedExec struct {
	ev   *evaluation
	q    *Query
	pr   *prepared
	gens []FromItem
	// gw[gi] is generator gi's walker, prepared on first use and rerun for
	// every binding of the generators before it.
	gw []*pathWalker
	// idx[gi] is the candidate index of generator gi's current binding.
	idx []int32
	// actual[gi] counts the bindings generator gi produced (for the
	// estimated-vs-actual EXPLAIN trace).
	actual []int64

	// Row collection. Unreordered plans emit in first-occurrence order
	// like the legacy emitter; reordered plans collect ranked rows and
	// sort at the end.
	rows   []Row
	seen   map[string]bool
	ranked []rankedRow
	best   map[string]int // row key -> index into ranked
	kb     []byte
	rank   []int32 // scratch: the rank of the row being collected
}

func newPlannedExec(ev *evaluation, q *Query, pr *prepared) *plannedExec {
	x := &plannedExec{
		ev:     ev,
		q:      q,
		pr:     pr,
		gens:   pr.gens,
		gw:     make([]*pathWalker, len(pr.gens)),
		idx:    make([]int32, len(pr.gens)),
		actual: make([]int64, len(pr.gens)),
	}
	if pr.plan.Reordered {
		x.best = make(map[string]int)
		x.rank = make([]int32, pr.plan.NStrict+1)
	} else {
		x.seen = make(map[string]bool)
	}
	return x
}

// applyPush evaluates the conjuncts placed at position p (first p
// generators of the order bound).
func (x *plannedExec) applyPush(p int) (bool, error) {
	for _, ci := range x.pr.plan.Push[p] {
		ok, err := x.ev.evalBool(x.pr.conjs[ci])
		if err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// prepare builds generator gi's walker. next consumes one binding of the
// generator's variable: it runs with the variable bound, for every match of
// every run.
func (x *plannedExec) prepare(gi int, next func() error) *pathWalker {
	g, en := x.gens[gi], &x.ev.env
	w := x.ev.newWalker(g.Path)
	w.yield = func(b binding) error {
		x.actual[gi]++
		x.idx[gi]++
		m := en.mark()
		en.bind(g.Var, b)
		err := next()
		en.release(m)
		return err
	}
	x.gw[gi] = w
	return w
}

// bound runs next with one materialized match of generator gi bound.
func (x *plannedExec) bound(gi int, r pathResult, next func() error) error {
	en := &x.ev.env
	m := en.mark()
	en.bindResult(x.gens[gi].Var, r)
	err := next()
	en.release(m)
	return err
}

// run enumerates the strict block from depth d (d generators of the
// order already bound).
func (x *plannedExec) run(d int) error {
	if err := x.ev.checkCancel(); err != nil {
		return err
	}
	if ok, err := x.applyPush(d); err != nil || !ok {
		return err
	}
	pl := x.pr.plan
	if d == pl.NStrict {
		sat, err := x.existSat(0)
		if err != nil {
			return err
		}
		if sat {
			return x.emit()
		}
		return nil
	}
	gi := pl.Order[d]
	if x.ev.stream {
		// Stream candidates through the walker instead of materializing the
		// generator's binding list. The walker yields in the exact order
		// evalPath would return, so the candidate index (the written-order
		// rank component for reordered plans) is just a running counter.
		w := x.gw[gi]
		if w == nil {
			w = x.prepare(gi, func() error { return x.run(d + 1) })
		}
		x.idx[gi] = -1
		return w.run()
	}
	results, err := x.ev.evalPath(x.gens[gi].Path)
	if err != nil {
		return err
	}
	x.actual[gi] += int64(len(results))
	next := func() error { return x.run(d + 1) }
	for k, r := range results {
		x.idx[gi] = int32(k)
		if err := x.bound(gi, r, next); err != nil {
			return err
		}
	}
	return nil
}

// existSat searches the existential block (d existential generators
// bound) for one completion satisfying every remaining pushed conjunct.
// Empty generators null-bind their variables exactly as the written-order
// evaluator does, so predicates over missing paths see the same nulls.
func (x *plannedExec) existSat(d int) (bool, error) {
	if err := x.ev.checkCancel(); err != nil {
		return false, err
	}
	pl := x.pr.plan
	if d > 0 {
		if ok, err := x.applyPush(pl.NStrict + d); err != nil || !ok {
			return false, err
		}
	}
	if pl.NStrict+d == len(pl.Order) {
		return true, nil
	}
	gi := pl.Order[pl.NStrict+d]
	// The search needs one satisfying completion, reported as errStop:
	// streaming, candidates past the witness are never generated at all,
	// and actual[gi] counts only the candidates actually examined.
	var n int
	var err error
	if x.ev.stream {
		w := x.gw[gi]
		if w == nil {
			w = x.prepare(gi, func() error { return x.witness(d + 1) })
		}
		err = w.run()
		n = w.n
	} else {
		var results []pathResult
		results, err = x.ev.evalPath(x.gens[gi].Path)
		x.actual[gi] += int64(len(results))
		n = len(results)
		next := func() error { return x.witness(d + 1) }
		for i := 0; i < n && err == nil; i++ {
			err = x.bound(gi, results[i], next)
		}
	}
	if err != nil || n > 0 {
		if err == errStop {
			return true, nil
		}
		return false, err
	}
	en := &x.ev.env
	m := en.mark()
	en.bindNull(x.gens[gi])
	sat, err := x.existSat(d + 1)
	en.release(m)
	return sat, err
}

// witness reports a satisfying completion from existential depth d as
// errStop.
func (x *plannedExec) witness(d int) error {
	sat, err := x.existSat(d)
	if err == nil && sat {
		err = errStop
	}
	return err
}

// emit builds and collects the rows of the bound strict tuple.
func (x *plannedExec) emit() error {
	x.ev.bindings++
	built, err := x.ev.buildRows(x.q.Select)
	if err != nil {
		return err
	}
	pl := x.pr.plan
	if !pl.Reordered {
		for _, row := range built {
			x.kb = row.appendKey(x.kb[:0])
			if !x.seen[string(x.kb)] {
				x.seen[string(x.kb)] = true
				x.rows = append(x.rows, row)
			} else {
				x.ev.dedupHits++
			}
		}
		return nil
	}
	copy(x.rank, x.idx[:pl.NStrict]) // strict gens are written-order 0..NStrict-1
	for ri, row := range built {
		x.rank[pl.NStrict] = int32(ri)
		x.kb = row.appendKey(x.kb[:0])
		if bi, ok := x.best[string(x.kb)]; ok {
			x.ev.dedupHits++
			if rankLess(x.rank, x.ranked[bi].rank) {
				copy(x.ranked[bi].rank, x.rank)
			}
		} else {
			x.best[string(x.kb)] = len(x.ranked)
			x.ranked = append(x.ranked, rankedRow{row: row, rank: append([]int32(nil), x.rank...)})
		}
	}
	return nil
}

func (x *plannedExec) emitted() int {
	if x.pr.plan.Reordered {
		return len(x.ranked)
	}
	return len(x.rows)
}

// finishRows returns the collected rows in written-enumeration order.
func (x *plannedExec) finishRows() []Row {
	if !x.pr.plan.Reordered {
		return x.rows
	}
	sort.Slice(x.ranked, func(i, j int) bool {
		return rankLess(x.ranked[i].rank, x.ranked[j].rank)
	})
	rows := make([]Row, len(x.ranked))
	for i := range x.ranked {
		rows[i] = x.ranked[i].row
	}
	return rows
}

// evalPlanned executes a prepared plan, in parallel when the engine's
// parallelism allows.
func (e *Engine) evalPlanned(ev *evaluation, q *Query, pr *prepared) (*Result, error) {
	pl := pr.plan
	mPlanExecs.Inc()
	if pl.Reordered {
		mPlanReordered.Inc()
	}
	ev.constTimes, ev.litTimes = pr.constTimes, pr.litTimes

	sp := ev.trace.StartSpan("plan")
	vars := make([]string, len(pl.Order))
	for i, gi := range pl.Order {
		vars[i] = pr.gens[gi].Var
	}
	mode := "written"
	if pl.Reordered {
		mode = "reordered"
	}
	sp.EndNote("order=%s mode=%s est_tuples=%.4g", strings.Join(vars, ","), mode, pl.EstTuples)

	if w := e.Parallelism(); w > 1 && pl.NStrict > 0 {
		res, done, err := e.evalPlannedParallel(ev, q, pr, w)
		if done {
			return res, err
		}
	}
	x := newPlannedExec(ev, q, pr)
	if err := x.run(0); err != nil {
		return nil, err
	}
	x.flushTrace()
	return &Result{Rows: x.finishRows()}, nil
}

// flushTrace records estimated-vs-actual cardinalities per generator.
func (x *plannedExec) flushTrace() {
	pl := x.pr.plan
	for _, gi := range pl.Order {
		v := x.gens[gi].Var
		x.ev.trace.Add("plan_actual_"+v, x.actual[gi])
		x.ev.trace.Add("plan_est_"+v, int64(pl.Est[gi]+0.5))
	}
}

// evalPlannedParallel partitions the plan's outermost generator across
// workers, mirroring the legacy evalParallel merge discipline: contiguous
// shards, first-occurrence dedup (or global rank merge when reordered),
// and the minimum-index error. The outer generator of a plan order never
// has dependencies (greedy only places satisfiable generators), so its
// candidate list is computable up front. done=false falls back to the
// serial planned path.
func (e *Engine) evalPlannedParallel(ev *evaluation, q *Query, pr *prepared, workers int) (*Result, bool, error) {
	pl := pr.plan
	parent := newPlannedExec(ev, q, pr)
	if ok, err := parent.applyPush(0); err != nil || !ok {
		if err != nil {
			return nil, true, err
		}
		return &Result{}, true, nil
	}
	o0 := pl.Order[0]
	g := pr.gens[o0]
	outer, err := ev.evalPath(g.Path)
	if err != nil {
		return nil, true, err
	}
	if len(outer) < 2 {
		return nil, false, nil
	}
	if workers > len(outer) {
		workers = len(outer)
	}
	mParallel.Inc()

	type shard struct {
		x     *plannedExec
		errAt int
		err   error
	}
	shards := make([]shard, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(outer) / workers
		hi := (w + 1) * len(outer) / workers
		wg.Add(1)
		go func(w int, sh *shard, lo, hi int) {
			defer wg.Done()
			sp := ev.trace.StartSpan("worker")
			wev := ev.fork()
			x := newPlannedExec(wev, q, pr)
			next := func() error { return x.run(1) }
			for i := lo; i < hi; i++ {
				x.idx[o0] = int32(i)
				if err := x.bound(o0, outer[i], next); err != nil {
					sh.errAt, sh.err = i, err
					break
				}
			}
			sh.x = x
			sp.EndNote("w=%d range=[%d,%d) rows=%d", w, lo, hi, x.emitted())
		}(w, &shards[w], lo, hi)
	}
	wg.Wait()

	// Fold worker stats into the parent evaluation and exec.
	parent.actual[o0] = int64(len(outer))
	for i := range shards {
		x := shards[i].x
		ev.bindings += x.ev.bindings
		ev.dedupHits += x.ev.dedupHits
		for gi := range parent.actual {
			if gi != o0 {
				parent.actual[gi] += x.actual[gi]
			}
		}
	}

	var firstErr error
	firstAt := -1
	for i := range shards {
		if shards[i].err != nil && (firstAt < 0 || shards[i].errAt < firstAt) {
			firstAt, firstErr = shards[i].errAt, shards[i].err
		}
	}
	if firstErr != nil {
		return nil, true, firstErr
	}

	msp := ev.trace.StartSpan("merge")
	if !pl.Reordered {
		for i := range shards {
			for _, row := range shards[i].x.rows {
				parent.kb = row.appendKey(parent.kb[:0])
				if !parent.seen[string(parent.kb)] {
					parent.seen[string(parent.kb)] = true
					parent.rows = append(parent.rows, row)
				} else {
					ev.dedupHits++
				}
			}
		}
	} else {
		for i := range shards {
			for _, rr := range shards[i].x.ranked {
				k := rr.row.key()
				if bi, ok := parent.best[k]; ok {
					ev.dedupHits++
					if rankLess(rr.rank, parent.ranked[bi].rank) {
						parent.ranked[bi].rank = rr.rank
					}
				} else {
					parent.best[k] = len(parent.ranked)
					parent.ranked = append(parent.ranked, rr)
				}
			}
		}
	}
	rows := parent.finishRows()
	msp.EndNote("workers=%d rows=%d", workers, len(rows))
	parent.flushTrace()
	return &Result{Rows: rows}, true, nil
}
