package segment

import "repro/internal/obs"

// Segment metrics, visible in obs.Snapshot() and on /metrics when
// collection is enabled. Names are documented in docs/segments.md.
var (
	mSeals       = obs.NewCounter("segment_seals_total")
	mSealNs      = obs.NewHistogram("segment_seal_ns")
	mIdxLoads    = obs.NewCounter("segment_index_loads_total")
	mIdxLoadNs   = obs.NewHistogram("segment_index_load_ns")
	mIdxRebuilds = obs.NewCounter("segment_index_rebuilds_total")
	// mIdxWriteFailures counts rebuilt indexes whose file could not be
	// written; the rebuilt index is served all the same.
	mIdxWriteFailures = obs.NewCounter("segment_index_write_failures_total")
	mOpenNs           = obs.NewHistogram("segment_open_ns")
	// mStatsRebuilds counts full recounts of the planner statistics; in
	// steady state Store.Apply advances them and this stays flat.
	mStatsRebuilds = obs.NewCounter("segment_stats_rebuilds_total")
	gSegments      = obs.NewGauge("segment_count")
	gHotSegments   = obs.NewGauge("segment_hot_count")
	gActiveAnnots  = obs.NewGauge("segment_active_annotations")
)
