package incr

import "repro/internal/obs"

// Package-level counters on the default registry, following the
// <subsystem>_<thing>_total convention documented in
// docs/observability.md.
var (
	// mExtracts counts fingerprint extractions (one per Subscribe /
	// trigger Add, plus re-extractions after replica adoption).
	mExtracts = obs.NewCounter("incr_fingerprints_total")
	// mUnanalyzable counts extractions that fell back to the
	// always-evaluate fingerprint.
	mUnanalyzable = obs.NewCounter("incr_unanalyzable_total")
	// mDecisions counts per-subscription skip/evaluate decisions.
	mDecisions = obs.NewCounter("incr_decisions_total")
	// mSkips counts evaluations suppressed as provably empty.
	mSkips = obs.NewCounter("incr_skips_total")
	// mEvals counts decisions that fell through to full evaluation.
	mEvals = obs.NewCounter("incr_evals_total")
	// mWalkBudget counts backward prefix walks abandoned over budget
	// (each such walk conservatively reports a match).
	mWalkBudget = obs.NewCounter("incr_walk_budget_exceeded_total")
)
