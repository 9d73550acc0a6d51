// Package plan is the cost-based query planner for canonical Lorel/Chorel
// queries: given a specification of a query's generators (the canonical
// single-step from-clause) and its where-clause conjuncts, it chooses a
// join order by estimated selectivity, places each conjunct at the
// earliest position where its variables are bound (predicate pushdown),
// and reports per-generator cardinality estimates for EXPLAIN.
//
// The package is deliberately a leaf: it knows nothing about the AST or
// the evaluator. internal/lorel extracts a Spec from a canonicalized
// query, fills in cardinalities through the Stats interface (implemented
// by internal/index from its adjacency maps and by internal/segment from
// its STATE summaries), calls Prepare, and executes the resulting Plan.
// That keeps every costing decision unit-testable without a database. For
// queries it does not cost, internal/lorel builds the written-order Plan
// itself: every generator in written order, the whole where clause last.
//
// Correctness is not plan-dependent: the executor restores the written
// enumeration order when a plan reorders strict generators, so planner-on
// results are byte-identical to planner-off (the parity property test in
// this package pins that against monolithic and segmented stores).
package plan

import (
	"fmt"
	"strings"
)

// StepKind classifies the single step of a canonical generator, which is
// what determines both its fanout estimate and its per-expansion cost.
type StepKind uint8

const (
	KindHead  StepKind = iota // bare head (aliasing generator): fanout 1
	KindLabel                 // exact label over the current snapshot
	KindGlob                  // '%' glob label: scans the adjacency list
	KindHash                  // '#': the whole reachable subtree
	KindGroup                 // regular path group (alts, quantifier)
	KindAnnot                 // <add|rem at T>: full arc relation + chains
	KindAt                    // <at T>: historical view seek
)

func (k StepKind) String() string {
	switch k {
	case KindHead:
		return "head"
	case KindLabel:
		return "label"
	case KindGlob:
		return "glob"
	case KindHash:
		return "subtree"
	case KindGroup:
		return "group"
	case KindAnnot:
		return "annot"
	case KindAt:
		return "at"
	}
	return "?"
}

// PredKind classifies a where-clause conjunct for selectivity estimation.
type PredKind uint8

const (
	PredOther PredKind = iota // disjunctions, exists, truthiness, ...
	PredEq                    // equality comparison
	PredRange                 // ordered comparison (<, <=, >, >=, !=)
	PredLike                  // like pattern
)

// Textbook selectivity defaults; see docs/planner.md.
func selectivity(k PredKind) float64 {
	switch k {
	case PredEq:
		return 0.10
	case PredRange:
		return 0.33
	case PredLike:
		return 0.25
	}
	return 0.50
}

// Card is the cardinality summary of the database a generator's head
// resolves to, restricted to the generator's label where that applies.
// The zero value means "no statistics" and selects structural defaults.
type Card struct {
	Known  bool
	Nodes  int // nodes ever created
	Arcs   int // current-snapshot arcs, all labels
	Annots int // total annotations in the history
	Label  LabelCard
}

// LabelCard is the per-label slice of the summary.
type LabelCard struct {
	Parents, Arcs       int // current snapshot: distinct parents, arcs
	AllParents, AllArcs int // full arc relation (removed arcs included)
	RootOut, AllRootOut int // arcs with the label out of the root
}

// GenSpec describes one canonical generator.
type GenSpec struct {
	Var    string
	Source string // rendered path, for EXPLAIN
	Strict bool   // from-clause (strict) vs hoisted where-clause (existential)
	Kind   StepKind
	Root   bool  // head is a database root, not a variable
	Deps   []int // generator indexes this one depends on (head, time exprs)
	Card   Card
}

// ConjSpec describes one top-level where-clause conjunct.
type ConjSpec struct {
	Text string // rendered expression, for EXPLAIN
	Deps []int  // generators whose variables the conjunct references
	Kind PredKind
}

// Spec is the planner's input: generators in written order (strict block
// first, as the canonicalizer emits them), plus the where conjuncts.
type Spec struct {
	Gens  []GenSpec
	Conjs []ConjSpec
}

// Plan is the planner's output.
type Plan struct {
	// Order lists every generator index in execution order: the strict
	// block first (a permutation of the strict indexes), then the
	// existential block.
	Order   []int
	NStrict int
	// Reordered reports whether the strict block differs from written
	// order, in which case the executor must restore result order by
	// enumeration rank. Reordering only the existential block never sets
	// this: existential bindings cannot reach the select clause.
	Reordered bool
	// Push[p] holds the conjunct indexes to evaluate once the first p
	// generators of Order are bound; Push[0] are constant conjuncts.
	Push [][]int
	// Est[g] is the estimated total number of bindings generator g
	// produces over the whole evaluation, indexed by original position.
	Est []float64
	// EstTuples estimates the strict tuples surviving all pushed
	// conjuncts on strict positions.
	EstTuples float64
	// Costs of the chosen order and of the written order under the same
	// model (equal when no reordering was worthwhile).
	CostChosen, CostWritten float64
	// Notes are human-readable EXPLAIN lines describing the decisions.
	Notes []string
}

// ReorderThreshold is the minimum estimated cost improvement (written /
// chosen) before the planner commits to reordering strict generators.
// Below it the written order is kept: rank-restoring emission has real
// bookkeeping cost, and estimates this close are within model noise.
const ReorderThreshold = 1.3

// fanout estimates how many bindings one expansion of g produces.
func fanout(g *GenSpec) float64 {
	c := &g.Card
	if !c.Known {
		// Structural defaults, selective-first: exact labels are narrow,
		// globs wider, subtree expansion is the thing to postpone.
		switch g.Kind {
		case KindHead:
			return 1
		case KindLabel:
			return 3
		case KindGlob:
			return 8
		case KindHash:
			if g.Root {
				return 256
			}
			return 64
		case KindGroup:
			return 6
		case KindAnnot:
			return 2
		case KindAt:
			return 3
		}
		return 4
	}
	avgDeg := ratio(c.Arcs, c.Nodes, 0.5)
	switch g.Kind {
	case KindHead:
		return 1
	case KindLabel:
		if g.Root {
			return atLeast(float64(c.Label.RootOut), 0.1)
		}
		return ratio(c.Label.Arcs, c.Label.Parents, 0.1)
	case KindGlob:
		return atLeast(2*avgDeg, 1)
	case KindHash:
		if g.Root {
			return atLeast(float64(c.Nodes), 8)
		}
		return atLeast(float64(c.Nodes)/8, 8)
	case KindGroup:
		return atLeast(2*avgDeg, 2)
	case KindAnnot:
		if g.Root {
			return atLeast(1.5*float64(c.Label.AllRootOut), 0.1)
		}
		return 1.5 * ratio(c.Label.AllArcs, c.Label.AllParents, 0.1)
	case KindAt:
		// Live-at-T arcs are bounded by the full relation; use its
		// average as the (upper) estimate.
		if g.Root {
			return atLeast(float64(c.Label.AllRootOut), 0.1)
		}
		return ratio(c.Label.AllArcs, c.Label.AllParents, 0.1)
	}
	return avgDeg
}

// weight is the relative cost of producing one binding of g.
func weight(g *GenSpec) float64 {
	switch g.Kind {
	case KindHead:
		return 0.5
	case KindLabel:
		return 1 // indexed (parent, label) seek
	case KindGlob:
		return 1.5 // adjacency-list scan with glob matching
	case KindHash, KindGroup:
		return 2 // traversal with frontier dedup
	case KindAnnot:
		return 2.5 // full arc relation plus annotation chains
	case KindAt:
		return 2 // historical view lookups
	}
	return 1
}

func ratio(num, den int, whenEmpty float64) float64 {
	if den <= 0 {
		return whenEmpty
	}
	return float64(num) / float64(den)
}

func atLeast(v, lo float64) float64 {
	if v < lo {
		return lo
	}
	return v
}

// Prepare plans a query. It always returns a plan: when reordering is not
// worthwhile the plan keeps the written strict order and still carries
// the pushdown placement and estimates.
func Prepare(s *Spec) *Plan {
	var strict, exist []int
	for i := range s.Gens {
		if s.Gens[i].Strict {
			strict = append(strict, i)
		} else {
			exist = append(exist, i)
		}
	}

	written := append(append([]int{}, strict...), exist...)
	costWritten, _, _, _ := s.cost(written)

	chosenStrict := s.greedy(strict, nil)
	chosenExist := s.greedy(exist, chosenStrict)
	chosen := append(append([]int{}, chosenStrict...), chosenExist...)
	costChosen, _, _, _ := s.cost(chosen)

	reordered := !equalInts(chosenStrict, strict)
	if reordered && costWritten < costChosen*ReorderThreshold {
		// Not worth the rank-restoring emission: keep written strict
		// order (existential reordering is free — it cannot affect
		// result rows or their order).
		chosen = append(append([]int{}, strict...), chosenExist...)
		reordered = false
	}

	cost, est, tuples, push := s.cost(chosen)
	pl := &Plan{
		Order:       chosen,
		NStrict:     len(strict),
		Reordered:   reordered,
		Push:        push,
		Est:         est,
		EstTuples:   tuples,
		CostChosen:  cost,
		CostWritten: costWritten,
	}
	pl.Notes = s.describe(pl)
	return pl
}

// greedy orders one block (all-strict or all-existential) by repeatedly
// picking the eligible generator with the smallest fanout × pushed
// selectivity. placed carries the other block's already-ordered indexes
// (the strict block, when ordering existentials).
func (s *Spec) greedy(block, placed []int) []int {
	inBlock := make(map[int]bool, len(block))
	for _, i := range block {
		inBlock[i] = true
	}
	bound := make(map[int]bool, len(placed))
	for _, i := range placed {
		bound[i] = true
	}
	applied := make([]bool, len(s.Conjs))
	// Conjuncts only over placed generators are already applied.
	for ci := range s.Conjs {
		applied[ci] = depsIn(s.Conjs[ci].Deps, bound)
	}

	order := make([]int, 0, len(block))
	remaining := append([]int{}, block...)
	for len(remaining) > 0 {
		best, bestScore := -1, 0.0
		for _, gi := range remaining {
			g := &s.Gens[gi]
			if !depsIn(g.Deps, bound) {
				continue
			}
			score := fanout(g)
			for ci := range s.Conjs {
				if applied[ci] {
					continue
				}
				if depsInPlus(s.Conjs[ci].Deps, bound, gi) {
					score *= selectivity(s.Conjs[ci].Kind)
				}
			}
			if best < 0 || score < bestScore {
				best, bestScore = gi, score
			}
		}
		if best < 0 {
			// Unsatisfiable dependency (should be rejected upstream);
			// fall back to appending the rest in written order.
			order = append(order, remaining...)
			break
		}
		order = append(order, best)
		bound[best] = true
		for ci := range s.Conjs {
			if !applied[ci] && depsIn(s.Conjs[ci].Deps, bound) {
				applied[ci] = true
			}
		}
		for k, gi := range remaining {
			if gi == best {
				remaining = append(remaining[:k], remaining[k+1:]...)
				break
			}
		}
	}
	return order
}

// cost evaluates one complete order under the model: the work at each
// position is tuples-so-far × (1 + fanout × weight); pushed conjuncts
// shrink the tuple stream by their selectivity as soon as they apply.
func (s *Spec) cost(order []int) (total float64, est []float64, strictTuples float64, push [][]int) {
	pos := make(map[int]int, len(order)) // gen index -> 1-based position
	for i, gi := range order {
		pos[gi] = i + 1
	}
	push = make([][]int, len(order)+1)
	for ci := range s.Conjs {
		p := 0
		for _, d := range s.Conjs[ci].Deps {
			if pos[d] > p {
				p = pos[d]
			}
		}
		push[p] = append(push[p], ci)
	}

	est = make([]float64, len(s.Gens))
	tuples := 1.0
	for _, ci := range push[0] {
		tuples *= selectivity(s.Conjs[ci].Kind)
	}
	strictTuples = tuples
	total = 0
	for i, gi := range order {
		g := &s.Gens[gi]
		f := fanout(g)
		total += tuples * (1 + f*weight(g))
		produced := tuples * f
		est[gi] = produced
		tuples = produced
		for _, ci := range push[i+1] {
			tuples *= selectivity(s.Conjs[ci].Kind)
		}
		if g.Strict {
			strictTuples = tuples
		}
	}
	return total, est, strictTuples, push
}

// describe renders the EXPLAIN lines for a plan.
func (s *Spec) describe(pl *Plan) []string {
	var lines []string
	var vars []string
	for _, gi := range pl.Order {
		vars = append(vars, s.Gens[gi].Var)
	}
	mode := "written order"
	if pl.Reordered {
		mode = "reordered"
	}
	lines = append(lines, fmt.Sprintf("join order: %s (%s; est cost %.4g, written %.4g)",
		strings.Join(vars, " -> "), mode, pl.CostChosen, pl.CostWritten))
	for p, gi := range pl.Order {
		g := &s.Gens[gi]
		quant := "strict"
		if !g.Strict {
			quant = "exists"
		}
		stats := "no stats"
		if g.Card.Known {
			stats = "stats"
		}
		line := fmt.Sprintf("  %s := %s  [%s %s, %s] est=%.4g", g.Var, g.Source, quant, g.Kind, stats, pl.Est[gi])
		if conj := s.pushText(pl.Push[p+1]); conj != "" {
			line += "  push: " + conj
		}
		lines = append(lines, line)
	}
	if conj := s.pushText(pl.Push[0]); conj != "" {
		lines = append(lines, "  constant predicates: "+conj)
	}
	lines = append(lines, fmt.Sprintf("est tuples: %.4g", pl.EstTuples))
	return lines
}

func (s *Spec) pushText(cis []int) string {
	if len(cis) == 0 {
		return ""
	}
	parts := make([]string, 0, len(cis))
	for _, ci := range cis {
		parts = append(parts, s.Conjs[ci].Text)
	}
	return strings.Join(parts, " and ")
}

func depsIn(deps []int, set map[int]bool) bool {
	for _, d := range deps {
		if !set[d] {
			return false
		}
	}
	return true
}

func depsInPlus(deps []int, set map[int]bool, extra int) bool {
	for _, d := range deps {
		if d != extra && !set[d] {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
