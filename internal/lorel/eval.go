package lorel

import (
	"context"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/doem"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// Engine evaluates Lorel and Chorel queries over registered graphs. Path
// expression heads resolve to registered database names ("guide", or a QSS
// polling-query name such as "LyttonRestaurants").
//
// Concurrency: one Engine is safe for any number of concurrent callers.
// Register and SetPollTimes swap copy-on-write state under a lock; every
// evaluation snapshots that state once at the start and owns the rest of
// its state, so concurrent Query/Eval calls never observe a partial update
// or each other. The registered graphs themselves must honor the read-path
// contract documented on Graph: queries only read, so graphs may be shared
// across goroutines as long as nobody mutates them mid-query (lore.Store
// serializes mutation against readers; QSS and the trigger manager mutate
// only between evaluations).
type Engine struct {
	// mu guards the copy-on-write engine state below. The maps and slices
	// it protects are never mutated in place once published: writers build
	// a replacement and swap it, so a snapshot taken under RLock stays
	// valid for the whole evaluation.
	mu        sync.RWMutex
	graphs    map[string]Graph
	order     []string
	pollTimes []timestamp.Time

	// cache holds parsed-and-canonicalized queries by source text.
	// Evaluation never mutates a canonicalized AST, so cached queries are
	// shared across calls; standing queries (QSS filters, triggers) parse
	// once. Eviction is two-generation (see cacheInsert): cache is the hot
	// generation, cacheOld the previous one, probed on a miss.
	cacheMu  sync.Mutex
	cache    map[string]*Query
	cacheOld map[string]*Query

	// planning gates the cost-based planner (guarded by mu; see plan.go).
	// plans caches prepared plans by canonical-AST key, pinned to the
	// stats versions of the graphs they were costed against.
	planning bool
	planMu   sync.Mutex
	plans    map[string]*prepared
}

// cacheLimit bounds one generation of the parsed-query cache; total
// retention is at most two generations (2*cacheLimit entries). The old
// wholesale reset at the limit dropped the hot standing-query working set
// along with the churn that filled the cache, forcing every standing
// query to re-parse on its next poll; the two-generation scheme keeps
// anything re-requested within a generation's worth of churn (promotion
// on an old-generation hit) while still evicting one-off texts.
const cacheLimit = 256

// NewEngine returns an empty engine, with the cost-based planner on.
func NewEngine() *Engine {
	return &Engine{
		graphs:   make(map[string]Graph),
		cache:    make(map[string]*Query),
		planning: true,
		plans:    make(map[string]*prepared),
	}
}

// Register makes g available to queries under the given name. Registering
// an existing name replaces it. Queries already in flight keep evaluating
// against the graph set they started with.
func (e *Engine) Register(name string, g Graph) {
	e.mu.Lock()
	defer e.mu.Unlock()
	next := make(map[string]Graph, len(e.graphs)+1)
	for n, gr := range e.graphs {
		next[n] = gr
	}
	if _, ok := next[name]; !ok {
		e.order = append(append([]string(nil), e.order...), name)
	}
	next[name] = g
	e.graphs = next
}

// Names returns the registered database names in registration order.
func (e *Engine) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return append([]string(nil), e.order...)
}

// SetPollTimes installs the polling-time sequence used to resolve t[0],
// t[-1], ... (paper Section 6): t[0] is the last element, t[-i] counts back
// from it, and references beyond the start resolve to -infinity. Each
// evaluation snapshots the sequence when it starts, so concurrent queries
// each see one consistent sequence.
func (e *Engine) SetPollTimes(times []timestamp.Time) {
	copied := append([]timestamp.Time(nil), times...)
	e.mu.Lock()
	e.pollTimes = copied
	e.mu.Unlock()
}

// Query parses, canonicalizes and evaluates a query. Parsed queries are
// cached by source text, so repeated evaluation of standing queries pays
// only for evaluation.
func (e *Engine) Query(src string) (*Result, error) {
	return e.QueryContext(context.Background(), src)
}

// QueryContext is Query with cancellation: evaluation aborts with the
// context's error shortly after ctx is cancelled.
func (e *Engine) QueryContext(ctx context.Context, src string) (*Result, error) {
	q, err := e.cachedQuery(ctx, src)
	if err != nil {
		return nil, err
	}
	return e.EvalContext(ctx, q)
}

// cachedQuery parses and canonicalizes src through the parse cache.
func (e *Engine) cachedQuery(ctx context.Context, src string) (*Query, error) {
	tr := obs.TraceFrom(ctx)
	e.cacheMu.Lock()
	q, ok := e.cache[src]
	if !ok {
		if oq, old := e.cacheOld[src]; old {
			// Old-generation hit: promote into the hot generation so a
			// standing query re-requested under churn survives rotation.
			q, ok = oq, true
			e.cacheInsert(src, q)
		}
	}
	e.cacheMu.Unlock()
	if ok {
		mCacheHits.Inc()
		tr.StartSpan("parse").EndNote("cache=hit")
	} else {
		mCacheMisses.Inc()
		sp := tr.StartSpan("parse")
		var err error
		q, err = Parse(src)
		if err != nil {
			sp.EndNote("error=parse")
			return nil, err
		}
		if err := Canonicalize(q); err != nil {
			sp.EndNote("error=canonicalize")
			return nil, err
		}
		sp.EndNote("cache=miss")
		e.cacheMu.Lock()
		e.cacheInsert(src, q)
		e.cacheMu.Unlock()
	}
	return q, nil
}

// cacheInsert adds one parsed query under cacheMu, rotating generations
// at the limit: the hot generation becomes the old one (dropping the
// previous old generation) and a fresh hot map starts. Entries touched
// at least once per generation of churn are re-promoted before the old
// generation is dropped, so the standing-query working set is never
// wholesale-evicted by one burst of distinct texts.
func (e *Engine) cacheInsert(src string, q *Query) {
	if len(e.cache) >= cacheLimit {
		e.cacheOld = e.cache
		e.cache = make(map[string]*Query, cacheLimit)
	}
	e.cache[src] = q
}

// binding is a variable binding: a graph node (optionally viewed as of a
// past time), an atomic value, or null (an empty existential generator).
type binding struct {
	kind    bindKind
	g       Graph
	id      oem.NodeID
	val     value.Value
	hasAsOf bool
	asOf    timestamp.Time
}

type bindKind uint8

const (
	bNull bindKind = iota
	bNode
	bValue
)

func nodeBinding(g Graph, id oem.NodeID) binding {
	return binding{kind: bNode, g: g, id: id}
}

func valueBinding(v value.Value) binding { return binding{kind: bValue, val: v} }

// valueOf reads the value a binding denotes for comparisons.
func (b binding) valueOf() (value.Value, bool) {
	switch b.kind {
	case bValue:
		return b.val, true
	case bNode:
		if b.hasAsOf {
			return b.g.ValueAt(b.id, b.asOf), true
		}
		return b.g.Value(b.id)
	default:
		return value.Value{}, false
	}
}

// appendKey appends b's dedup key for result rows to dst. Value keys carry
// the value's kind so values of different kinds with identical renderings
// (Int(5) and Real(5) both print "5") cannot collide. Dedup runs once per
// candidate row, so this path sticks to strconv appends and avoids fmt.
func (b binding) appendKey(dst []byte) []byte {
	switch b.kind {
	case bNode:
		dst = append(dst, 'n')
		dst = strconv.AppendUint(dst, uint64(graphTag(b.g)), 16)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(b.id), 10)
		if b.hasAsOf {
			dst = append(dst, '@')
			dst = appendTimeKey(dst, b.asOf)
		}
		return dst
	case bValue:
		dst = append(dst, 'v')
		dst = strconv.AppendInt(dst, int64(b.val.Kind()), 10)
		dst = append(dst, ':')
		// Per-kind appends instead of b.val.String(): the kind tag plus the
		// row key's outer length prefix keep the key injective without the
		// quoting and formatting String() pays allocations for. Times use
		// the same unix-seconds key as as-of components.
		switch b.val.Kind() {
		case value.KindInt:
			return strconv.AppendInt(dst, b.val.AsInt(), 10)
		case value.KindString:
			return append(dst, b.val.AsString()...)
		case value.KindTime:
			return appendTimeKey(dst, b.val.AsTime())
		case value.KindReal:
			return strconv.AppendFloat(dst, b.val.AsReal(), 'g', -1, 64)
		case value.KindBool:
			return strconv.AppendBool(dst, b.val.AsBool())
		default:
			return append(dst, b.val.String()...)
		}
	default:
		return append(dst, "null"...)
	}
}

func appendTimeKey(dst []byte, t timestamp.Time) []byte {
	if !t.IsFinite() {
		if t.Equal(timestamp.PosInf) {
			return append(dst, "+inf"...)
		}
		return append(dst, "-inf"...)
	}
	return strconv.AppendInt(dst, t.Unix(), 10)
}

// graphTag returns a per-graph discriminator for dedup keys so equal node
// ids from different registered graphs cannot collide in one result.
func graphTag(g Graph) uintptr {
	if og, ok := g.(OEMGraph); ok {
		return reflect.ValueOf(og.DB).Pointer()
	}
	v := reflect.ValueOf(g)
	switch v.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func:
		return v.Pointer()
	}
	return 0
}

// env is an evaluation's variable environment: a stack of (name, binding)
// entries. bind writes a binding in place and release(mark) undoes it when
// its scope ends, so once the stack has grown to the query's nesting depth
// binding a variable allocates nothing. lookup scans from the top, so an
// inner binding shadows an outer one of the same name. Each evaluation
// owns one.
type env struct{ vars []envVar }

type envVar struct {
	name string
	b    binding
}

func (e *env) mark() int     { return len(e.vars) }
func (e *env) release(m int) { e.vars = e.vars[:m] }

func (e *env) bind(name string, b binding) { e.vars = append(e.vars, envVar{name, b}) }

func (e *env) lookup(name string) (binding, bool) {
	for i := len(e.vars) - 1; i >= 0; i-- {
		if e.vars[i].name == name {
			return e.vars[i].b, true
		}
	}
	return binding{}, false
}

// evaluation carries the per-query state of one Eval call: an immutable
// snapshot of the engine's graphs and polling times, the caller's context,
// and a cancellation-check counter. Engine state mutated after the
// snapshot (Register, SetPollTimes) does not affect an evaluation in
// flight, which is what makes one Engine safe for concurrent queries.
type evaluation struct {
	graphs    map[string]Graph
	pollTimes []timestamp.Time
	ctx       context.Context
	tick      int

	// trace is the per-query trace from the context (nil when untraced;
	// every call on a nil Trace is a no-op).
	trace *obs.Trace
	// Per-evaluation stat counters: plain ints, not metrics, so the
	// per-tuple hot path pays no atomics; finish flushes them once.
	bindings  int64
	dedupHits int64

	// constTimes (set by the planned executor from its prepared plan, which
	// concurrent evaluations share read-only) marks <at T> operands with no
	// variable dependencies; atMemo caches their resolved instants for this
	// evaluation. litTimes (same provenance) holds the time coercion of each
	// string literal, done once at prepare.
	constTimes map[Expr]bool
	atMemo     map[Expr]timeMemo
	litTimes   map[*ConstExpr]timeMemo

	// Binding-loop state, owned by this evaluation alone: the environment
	// stack, the reused walkers of expression-embedded paths keyed by the
	// expression that walks them, and buildRows' scratch.
	env     env
	walkers map[Expr]*pathWalker
	ops     []operand
	rowBuf  []Row
}

// timeMemo is one memoized resolution of an expression to a time.
type timeMemo struct {
	t  timestamp.Time
	ok bool
}

// newEvaluation snapshots the engine state for one query.
func (e *Engine) newEvaluation(ctx context.Context) *evaluation {
	tr := obs.TraceFrom(ctx)
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	return &evaluation{graphs: e.graphs, pollTimes: e.pollTimes, ctx: ctx, trace: tr}
}

// finish flushes the evaluation's stats to the package metrics and trace.
func (ev *evaluation) finish(start time.Time, err error) {
	mQueries.Inc()
	if err != nil {
		mQueryErrors.Inc()
	}
	mQueryNs.ObserveSince(start)
	mBindings.Add(ev.bindings)
	mDedupHits.Add(ev.dedupHits)
	ev.trace.Add("bindings", ev.bindings)
	ev.trace.Add("dedup_hits", ev.dedupHits)
}

// cancelCheckInterval is how many checkCancel calls pass between real
// context polls; checks sit on per-tuple and per-frontier hot paths, so the
// interval trades abort latency against overhead.
const cancelCheckInterval = 1024

// checkCancel polls the context every cancelCheckInterval calls.
func (ev *evaluation) checkCancel() error {
	ev.tick++
	if ev.tick%cancelCheckInterval != 0 {
		return nil
	}
	select {
	case <-ev.ctx.Done():
		return ev.ctx.Err()
	default:
		return nil
	}
}

func (ev *evaluation) pollTime(idx int) timestamp.Time {
	// idx is 0 or negative: t[0] = last poll, t[-1] = previous, ...
	i := len(ev.pollTimes) - 1 + idx
	if i < 0 || len(ev.pollTimes) == 0 {
		return timestamp.NegInf
	}
	if i >= len(ev.pollTimes) {
		return timestamp.PosInf
	}
	return ev.pollTimes[i]
}

// Eval evaluates a canonicalized query.
func (e *Engine) Eval(q *Query) (*Result, error) {
	return e.EvalContext(context.Background(), q)
}

// EvalContext evaluates a canonicalized query under a context.
func (e *Engine) EvalContext(ctx context.Context, q *Query) (*Result, error) {
	start := obs.Now()
	ev := e.newEvaluation(ctx)
	sp := ev.trace.StartSpan("eval")
	var res *Result
	var err error
	if pr := e.planFor(ev, q); pr != nil && pr.plan != nil {
		res, err = ev.evalPlanned(q, pr)
	} else {
		res, err = ev.evalQuery(q)
	}
	rows := 0
	if res != nil {
		rows = len(res.Rows)
	}
	sp.EndNote("rows=%d", rows)
	ev.finish(start, err)
	return res, err
}

func (ev *evaluation) evalQuery(q *Query) (*Result, error) {
	gens := make([]FromItem, 0, len(q.From)+len(q.WhereGens))
	gens = append(gens, q.From...)
	gens = append(gens, q.WhereGens...)
	strict := len(q.From) // generators at index >= strict are existential
	res := &Result{}
	if err := ev.newWrittenExec(gens, strict, ev.emitter(q, res)).enumerate(0); err != nil {
		return nil, err
	}
	return res, nil
}

// emitter builds the tuple sink for one evaluation: it applies the where
// clause to the bound tuple, builds its rows, and appends the rows not
// seen before to res.
func (ev *evaluation) emitter(q *Query, res *Result) func() error {
	seen := make(map[string]bool)
	var kb []byte // reused key buffer; map lookups on string(kb) do not allocate
	return func() error {
		ev.bindings++
		if q.Where != nil {
			ok, err := ev.evalBool(q.Where)
			if err != nil {
				return err
			}
			if !ok {
				return nil
			}
		}
		built, err := ev.buildRows(q.Select)
		if err != nil {
			return err
		}
		for _, row := range built {
			kb = row.appendKey(kb[:0])
			if !seen[string(kb)] {
				seen[string(kb)] = true
				res.Rows = append(res.Rows, row)
			} else {
				ev.dedupHits++
			}
		}
		return nil
	}
}

// writtenExec enumerates the cross product of generator bindings in
// written order: the unplanned evaluator. Strict generators (from clause)
// eliminate the tuple when empty; existential generators (hoisted where
// paths) bind null instead, so disjunctions over missing paths still
// evaluate.
type writtenExec struct {
	ev     *evaluation
	gens   []FromItem
	strict int // generators at index >= strict are existential
	emit   func() error
	gw     []*pathWalker // per generator, built on first use
}

func (ev *evaluation) newWrittenExec(gens []FromItem, strict int, emit func() error) *writtenExec {
	return &writtenExec{ev: ev, gens: gens, strict: strict, emit: emit, gw: make([]*pathWalker, len(gens))}
}

// enumerate binds generators i.. and emits each completed tuple.
func (x *writtenExec) enumerate(i int) error {
	ev, en := x.ev, &x.ev.env
	if err := ev.checkCancel(); err != nil {
		return err
	}
	if i == len(x.gens) {
		return x.emit()
	}
	g := x.gens[i]
	// Each binding flows into the next generator as the walker produces it;
	// an errStop from a downstream consumer propagates up and stops the walk.
	w := x.gw[i]
	if w == nil {
		w = ev.newWalker(g.Path)
		w.yield = func(b binding) error {
			m := en.mark()
			en.bind(g.Var, b)
			err := x.enumerate(i + 1)
			en.release(m)
			return err
		}
		x.gw[i] = w
	}
	if err := w.run(); err != nil {
		return err
	}
	if w.n > 0 || i < x.strict {
		return nil // strict with no bindings: no tuples
	}
	// Existential generator with no matches: null-bind so the rest of the
	// where clause still evaluates.
	m := en.mark()
	en.bindNull(g)
	err := x.enumerate(i + 1)
	en.release(m)
	return err
}

// pathHead resolves a path's head: a variable in scope, else a registered
// database's root.
func (ev *evaluation) pathHead(p *PathExpr) (binding, error) {
	if b, ok := ev.env.lookup(p.Head); ok {
		return b, nil
	}
	if g, ok := ev.graphs[p.Head]; ok {
		return nodeBinding(g, g.Root()), nil
	}
	return binding{}, errf(p.P, "unknown name %q (neither a variable in scope nor a registered database)", p.Head)
}

// vars lists the variables an annotation expression binds ("" where it
// binds none).
func (a *AnnotExpr) vars() [3]string {
	if a == nil {
		return [3]string{}
	}
	return [3]string{a.AtVar, a.FromVar, a.ToVar}
}

func stepBindsVars(s *PathStep) bool {
	return s.Arc.vars() != [3]string{} || s.Node.vars() != [3]string{}
}

// bindNull binds an empty existential generator: the range variable and
// the annotation variables its path would have bound go to null — except
// names already bound in the enclosing scope, which must stay visible.
// (Null-binding a name an earlier generator bound would shadow a real
// binding and silently falsify predicates over it.)
func (e *env) bindNull(g FromItem) {
	e.bind(g.Var, binding{kind: bNull})
	for _, s := range g.Path.Steps {
		for _, vars := range [2][3]string{s.Arc.vars(), s.Node.vars()} {
			for _, v := range vars {
				if _, bound := e.lookup(v); v != "" && !bound {
					e.bind(v, binding{kind: bNull})
				}
			}
		}
	}
}

// expandGroup applies a regular path group to one binding: each
// application follows one of the alternative label sequences; the
// quantifier controls repetition. Unquoted group labels support '%' globs
// like ordinary steps; quoted ones match literally. It returns the reached
// node ids in ascending order; the walker delivers them with cur's
// time-travel instant (groups bind no variables).
func (ev *evaluation) expandGroup(cur binding, grp *PathGroup) []oem.NodeID {
	g := cur.g

	ls, hasLS := g.(LabelSeeker)

	// followSeq walks one fixed label sequence from a node set.
	followSeq := func(start map[oem.NodeID]bool, seq []GroupLabel) map[oem.NodeID]bool {
		frontier := start
		for _, l := range seq {
			next := make(map[oem.NodeID]bool)
			glob := !l.Quoted && strings.Contains(l.Label, "%")
			sym, known := symbol.None, false
			if hasLS && !glob && !cur.hasAsOf {
				sym, known = symbol.Lookup(l.Label)
			}
			for n := range frontier {
				if known {
					// Exact labels over the current snapshot come straight
					// from the adjacency index; the frontier is a set, so
					// arc order is immaterial here.
					for _, a := range ls.OutLabeled(n, sym) {
						next[a.Child] = true
					}
					continue
				}
				for _, a := range ev.liveArcs(cur, g, n) {
					if glob {
						if !value.Str(a.Label).Like(l.Label) {
							continue
						}
					} else if a.Label != l.Label {
						continue
					}
					next[a.Child] = true
				}
			}
			frontier = next
			if len(frontier) == 0 {
				break
			}
		}
		return frontier
	}

	// applyOnce maps a node set through any one alternative.
	applyOnce := func(start map[oem.NodeID]bool) map[oem.NodeID]bool {
		out := make(map[oem.NodeID]bool)
		for _, alt := range grp.Alts {
			for n := range followSeq(start, alt) {
				out[n] = true
			}
		}
		return out
	}

	start := map[oem.NodeID]bool{cur.id: true}
	var reached map[oem.NodeID]bool
	switch grp.Quant {
	case 0:
		reached = applyOnce(start)
	case '?':
		reached = applyOnce(start)
		reached[cur.id] = true
	case '*', '+':
		seen := make(map[oem.NodeID]bool)
		frontier := start
		if grp.Quant == '*' {
			seen[cur.id] = true
		}
		for len(frontier) > 0 {
			next := applyOnce(frontier)
			frontier = make(map[oem.NodeID]bool)
			for n := range next {
				if !seen[n] {
					seen[n] = true
					frontier[n] = true
				}
			}
		}
		reached = seen
	}

	ids := make([]oem.NodeID, 0, len(reached))
	for n := range reached {
		ids = append(ids, n)
	}
	slices.Sort(ids)
	return ids
}

// liveArcs returns the arcs of n visible to an unannotated step: the
// current snapshot, or the snapshot as of the binding's time-travel instant.
func (ev *evaluation) liveArcs(b binding, g Graph, n oem.NodeID) []oem.Arc {
	if !b.hasAsOf {
		return g.Out(n)
	}
	return g.OutAt(n, b.asOf)
}

// exactLabel reports whether the step's label matches by string equality
// only (no '%' globbing), making it servable from a label index.
func exactLabel(step *PathStep) bool {
	return step.Quoted || !strings.Contains(step.Label, "%")
}

func annotKindFor(op AnnotOp) doem.AnnotKind {
	if op == OpAdd {
		return doem.AnnotAdd
	}
	return doem.AnnotRem
}

// evalTime evaluates an expression to a timestamp (coercing strings and
// time values). Time operands the planner proved environment-independent
// resolve once per evaluation instead of once per binding (constant
// <at T> hoisting).
func (ev *evaluation) evalTime(ex Expr) (timestamp.Time, bool, error) {
	if ev.constTimes != nil && ev.constTimes[ex] {
		if m, ok := ev.atMemo[ex]; ok {
			return m.t, m.ok, nil
		}
		t, ok, err := ev.evalTimeUncached(ex)
		if err != nil {
			return t, ok, err
		}
		if ev.atMemo == nil {
			ev.atMemo = make(map[Expr]timeMemo)
		}
		ev.atMemo[ex] = timeMemo{t: t, ok: ok}
		return t, ok, nil
	}
	return ev.evalTimeUncached(ex)
}

func (ev *evaluation) evalTimeUncached(ex Expr) (timestamp.Time, bool, error) {
	bs, err := ev.evalOperand(ex)
	if err != nil {
		return timestamp.Time{}, false, err
	}
	for i := 0; i < bs.n; i++ {
		v, ok := bs.at(i).valueOf()
		if !ok {
			continue
		}
		switch v.Kind() {
		case value.KindTime:
			return v.AsTime(), true, nil
		case value.KindString:
			if t, err := timestamp.Parse(v.AsString()); err == nil {
				return t, true, nil
			}
		case value.KindInt:
			return timestamp.FromUnix(v.AsInt()), true, nil
		}
	}
	return timestamp.Time{}, false, nil
}

// operand is the set of bindings an expression denotes. A constant, a
// bound variable or a computed value denotes exactly one, held inline so
// reading it allocates nothing; only a path that still has steps (or
// arithmetic over one) can denote several.
type operand struct {
	n    int
	one  binding   // the binding when n == 1 and many is nil
	many []binding // the bindings otherwise
}

func single(b binding) operand { return operand{n: 1, one: b} }

func several(bs []binding) operand { return operand{n: len(bs), many: bs} }

func (o *operand) at(i int) binding {
	if o.many != nil {
		return o.many[i]
	}
	return o.one
}

// evalOperand evaluates an expression to the bindings it denotes.
func (ev *evaluation) evalOperand(ex Expr) (operand, error) {
	switch x := ex.(type) {
	case *ConstExpr:
		return single(valueBinding(x.Val)), nil
	case *TimeRefExpr:
		return single(valueBinding(value.Time(ev.pollTime(x.Index)))), nil
	case *PathValueExpr:
		if len(x.Path.Steps) == 0 { // a variable (or database root): read it
			b, err := ev.pathHead(x.Path)
			return single(b), err
		}
		var bs []binding
		w := ev.walker(x, x.Path)
		w.yield = func(b binding) error { bs = append(bs, b); return nil }
		err := w.run()
		return several(bs), err
	case *BinExpr:
		switch x.Op {
		case "+", "-", "*", "/":
			ls, err := ev.evalOperand(x.L)
			if err != nil {
				return operand{}, err
			}
			rs, err := ev.evalOperand(x.R)
			if err != nil {
				return operand{}, err
			}
			var out []binding
			for i := 0; i < ls.n; i++ {
				lv, lok := ls.at(i).valueOf()
				if !lok {
					continue
				}
				for j := 0; j < rs.n; j++ {
					rv, rok := rs.at(j).valueOf()
					if !rok {
						continue
					}
					if v, ok := value.Arith(x.Op, lv, rv); ok {
						out = append(out, valueBinding(v))
					}
				}
			}
			return several(out), nil
		default:
			// A boolean expression in operand position.
			ok, err := ev.evalBool(x)
			return single(valueBinding(value.Bool(ok))), err
		}
	case *NotExpr, *ExistsExpr:
		ok, err := ev.evalBool(ex)
		return single(valueBinding(value.Bool(ok))), err
	case *AggExpr:
		v, err := ev.evalAggregate(x)
		return single(valueBinding(v)), err
	}
	return operand{}, errf(ex.Pos(), "cannot evaluate expression %s", ex)
}

// aggFold folds an aggregate function over a path's matches. count tallies
// matches; min/max/sum/avg fold the coercible numeric (or, for min/max,
// comparable) values and yield null on an empty fold.
type aggFold struct {
	fn  string
	acc value.Value
	cnt int64
	n   int
}

func (f *aggFold) add(b binding) error {
	f.cnt++
	if f.fn == "count" {
		return nil
	}
	v, ok := b.valueOf()
	if !ok || v.IsComplex() || v.Kind() == value.KindNull {
		return nil
	}
	if f.n == 0 {
		f.acc = v
		f.n++
		return nil
	}
	switch f.fn {
	case "min":
		if cmp, ok := value.Compare(v, f.acc); ok && cmp < 0 {
			f.acc = v
		}
	case "max":
		if cmp, ok := value.Compare(v, f.acc); ok && cmp > 0 {
			f.acc = v
		}
	case "sum", "avg":
		s, ok := value.Arith("+", f.acc, v)
		if !ok {
			return nil
		}
		f.acc = s
	}
	f.n++
	return nil
}

func (f *aggFold) result() value.Value {
	switch {
	case f.fn == "count":
		return value.Int(f.cnt)
	case f.n == 0:
		return value.Null()
	case f.fn == "avg":
		if a, ok := value.Arith("/", f.acc, value.Int(int64(f.n))); ok {
			return a
		}
		return value.Null()
	}
	return f.acc
}

// evalAggregate folds an aggregate over its path's matches under the
// current tuple. The fold consumes the walker's stream directly: a count
// over a large path holds no state but the counter.
func (ev *evaluation) evalAggregate(agg *AggExpr) (value.Value, error) {
	w := ev.walker(agg, agg.Path)
	f, _ := w.state.(*aggFold)
	if f == nil {
		f = new(aggFold)
		w.state, w.yield = f, f.add
	}
	*f = aggFold{fn: agg.Fn}
	err := w.run()
	return f.result(), err
}

// evalBool evaluates an expression as a predicate. Comparisons over path
// sets are existential; coercion failures and null bindings yield false
// (the Lorel "forgiving" semantics of Example 4.1).
func (ev *evaluation) evalBool(ex Expr) (bool, error) {
	switch x := ex.(type) {
	case *BinExpr:
		switch x.Op {
		case "and":
			l, err := ev.evalBool(x.L)
			if err != nil || !l {
				return false, err
			}
			return ev.evalBool(x.R)
		case "or":
			l, err := ev.evalBool(x.L)
			if err != nil || l {
				return l, err
			}
			return ev.evalBool(x.R)
		case "=", "!=", "<", "<=", ">", ">=", "like":
			return ev.evalCompare(x)
		default:
			return false, errf(x.P, "operator %q is not a predicate", x.Op)
		}
	case *NotExpr:
		ok, err := ev.evalBool(x.E)
		return !ok, err
	case *ExistsExpr:
		// Stream candidates and stop at the first witness, so the walk does
		// work proportional to the witness's position.
		w := ev.walker(x, x.In)
		if w.yield == nil {
			en := &ev.env
			w.yield = func(b binding) error {
				ev.bindings++ // one candidate examined
				m := en.mark()
				en.bind(x.Var, b)
				ok, err := ev.evalBool(x.Cond)
				en.release(m)
				if err == nil && ok {
					err = errStop
				}
				return err
			}
		}
		err := w.run()
		if err == errStop {
			return true, nil
		}
		return false, err
	case *ConstExpr:
		return x.Val.Truthy(), nil
	case *PathValueExpr:
		bs, err := ev.evalOperand(ex)
		if err != nil {
			return false, err
		}
		for i := 0; i < bs.n; i++ {
			if v, ok := bs.at(i).valueOf(); ok && v.Truthy() {
				return true, nil
			}
		}
		return false, nil
	case *TimeRefExpr:
		return true, nil
	}
	return false, errf(ex.Pos(), "cannot evaluate %s as a predicate", ex)
}

// litTime returns the memoized time coercion of ex when it is a string
// literal prepared for this evaluation.
func (ev *evaluation) litTime(ex Expr) (timeMemo, bool) {
	if c, ok := ex.(*ConstExpr); ok && ev.litTimes != nil {
		m, ok := ev.litTimes[c]
		return m, ok
	}
	return timeMemo{}, false
}

// evalCompare evaluates a comparison or like: true when any pair of the
// operands' values satisfies it. A string literal facing a time compares by
// its coercion memoized at prepare, which is what value.Compare would
// re-derive (layout by layout) for every binding.
func (ev *evaluation) evalCompare(x *BinExpr) (bool, error) {
	ls, err := ev.evalOperand(x.L)
	if err != nil {
		return false, err
	}
	rs, err := ev.evalOperand(x.R)
	if err != nil {
		return false, err
	}
	lt, lLit := ev.litTime(x.L)
	rt, rLit := ev.litTime(x.R)
	for i := 0; i < ls.n; i++ {
		lv, lok := ls.at(i).valueOf()
		if !lok {
			continue
		}
		for j := 0; j < rs.n; j++ {
			rv, rok := rs.at(j).valueOf()
			if !rok {
				continue
			}
			if x.Op == "like" {
				if rv.Kind() == value.KindString && lv.Like(rv.AsString()) {
					return true, nil
				}
				continue
			}
			a, b := lv, rv
			if rLit && a.Kind() == value.KindTime {
				if !rt.ok {
					continue // the literal is no time: incomparable
				}
				b = value.Time(rt.t)
			} else if lLit && b.Kind() == value.KindTime {
				if !lt.ok {
					continue
				}
				a = value.Time(lt.t)
			}
			cmp, ok := value.Compare(a, b)
			if !ok {
				continue
			}
			match := false
			switch x.Op {
			case "=":
				match = cmp == 0
			case "!=":
				match = cmp != 0
			case "<":
				match = cmp < 0
			case "<=":
				match = cmp <= 0
			case ">":
				match = cmp > 0
			case ">=":
				match = cmp >= 0
			}
			if match {
				return true, nil
			}
		}
	}
	return false, nil
}

// buildRows constructs result rows for the bound tuple. Select items
// normally evaluate to single bindings; items that still denote sets fan
// out into one row per combination. The returned slice is scratch, valid
// until the next call.
func (ev *evaluation) buildRows(items []SelectItem) ([]Row, error) {
	ops := ev.ops[:0]
	single, allNull := true, true
	for _, item := range items {
		op, err := ev.evalOperand(item.Expr)
		if err != nil {
			return nil, err
		}
		if op.n == 0 {
			op = operand{n: 1} // the null binding
		}
		if op.n != 1 {
			single = false
		} else if op.at(0).kind != bNull {
			allNull = false
		}
		ops = append(ops, op)
	}
	ev.ops = ops
	rows := ev.rowBuf[:0]
	if single {
		// Every item resolved to one binding — exactly one row (none when it
		// is entirely null), no cross-product recursion.
		if !allNull {
			cells := make([]Cell, len(items))
			for i := range ops {
				cells[i] = Cell{Label: items[i].Label, b: ops[i].at(0)}
			}
			rows = append(rows, Row{Cells: cells})
		}
		ev.rowBuf = rows
		return rows, nil
	}
	var build func(i int, acc []Cell)
	build = func(i int, acc []Cell) {
		if i < len(items) {
			for k := 0; k < ops[i].n; k++ {
				build(i+1, append(acc, Cell{Label: items[i].Label, b: ops[i].at(k)}))
			}
			return
		}
		for _, c := range acc {
			if c.b.kind != bNull { // rows that are entirely null are dropped
				rows = append(rows, Row{Cells: append([]Cell(nil), acc...)})
				return
			}
		}
	}
	build(0, nil)
	ev.rowBuf = rows
	return rows, nil
}
