package lorel

import "repro/internal/obs"

// Engine metrics (see docs/observability.md). All collection is behind
// the obs global gate: with observability disabled each counter costs
// one atomic load per query, not per tuple — the per-tuple stats are
// plain fields on the evaluation and are flushed once at the end.
var (
	mQueries     = obs.NewCounter("lorel_queries_total")
	mQueryErrors = obs.NewCounter("lorel_query_errors_total")
	mQueryNs     = obs.NewHistogram("lorel_query_ns")
	mCacheHits   = obs.NewCounter("lorel_parse_cache_hits_total")
	mCacheMisses = obs.NewCounter("lorel_parse_cache_misses_total")
	mBindings    = obs.NewCounter("lorel_bindings_total")
	mDedupHits   = obs.NewCounter("lorel_dedup_hits_total")

	// Planner metrics: plan-cache traffic, re-preparations forced by stale
	// statistics, queries the validator gave the written-order plan, and
	// plan executions, one per evaluation (reordered counts the subset
	// that committed to a strict-block reorder).
	mPlanCacheHits   = obs.NewCounter("lorel_plan_cache_hits_total")
	mPlanCacheMisses = obs.NewCounter("lorel_plan_cache_misses_total")
	mPlanReprepares  = obs.NewCounter("lorel_plan_reprepares_total")
	mPlanUnplannable = obs.NewCounter("lorel_plan_unplannable_total")
	mPlanExecs       = obs.NewCounter("lorel_plan_execs_total")
	mPlanReordered   = obs.NewCounter("lorel_plan_reordered_total")
)
