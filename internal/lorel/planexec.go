package lorel

import (
	"sort"
	"strings"
)

// This file is the executor every query runs through: it enumerates
// generators in the plan's order, applies pushed conjuncts as soon as
// their variables are bound, and short-circuits existential search at the
// first satisfying completion. Under the written-order plan (plan.go) that
// is the paper's nested loops. A cost-based plan's contract is output
// byte-identical to the written-order plan's, which rests on three
// properties the validator in plan.go established: pushed conjuncts are
// pure and error-free (conjunction order cannot matter), existential
// variables never reach the select clause (collapsing completions per
// strict tuple cannot drop rows), and a generator's candidate list depends
// only on the bindings of its declared dependencies (a candidate's index
// is the same in any enumeration order, so written-order ranks are
// reconstructible).

// rankedRow carries a result row plus its written-order enumeration rank:
// the candidate indexes of the strict generators in written order,
// followed by the row's position within its tuple's built rows.
// Lexicographic rank order is exactly the order the written-order plan
// would first emit each row.
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

// plannedExec is the per-evaluation state of one planned execution.
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

	// Row collection. Unreordered plans emit in first-occurrence order;
	// reordered plans collect ranked rows and sort at the end.
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

// run enumerates the block before NStrict from depth d (d generators of
// the order already bound).
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
	// Stream candidates through the walker. It yields in path order, so the
	// candidate index (the written-order rank component for reordered
	// plans) is just a running counter.
	w := x.gw[gi]
	if w == nil {
		w = x.prepare(gi, func() error { return x.run(d + 1) })
	}
	x.idx[gi] = -1
	if err := w.run(); err != nil || w.n > 0 || gi < len(x.q.From) {
		return err
	}
	// An existential generator that matched nothing null-binds and the
	// enumeration goes on, so the rest of the where clause still evaluates.
	// Only the written-order plan enumerates one: a cost-based plan's
	// enumerated block is strict only.
	en := &x.ev.env
	m := en.mark()
	en.bindNull(x.gens[gi])
	err := x.run(d + 1)
	en.release(m)
	return err
}

// existSat searches the existential block (d existential generators
// bound) for one completion satisfying every remaining pushed conjunct.
// Empty generators null-bind their variables exactly as run does under
// the written-order plan, so predicates over missing paths see the same
// nulls.
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
	// candidates past the witness are never generated at all, and
	// actual[gi] counts only the candidates actually examined.
	w := x.gw[gi]
	if w == nil {
		w = x.prepare(gi, func() error { return x.witness(d + 1) })
	}
	err := w.run()
	if err != nil || w.n > 0 {
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

// evalPlanned executes a prepared plan.
func (ev *evaluation) evalPlanned(q *Query, pr *prepared) (*Result, error) {
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
