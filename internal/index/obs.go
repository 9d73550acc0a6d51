package index

import (
	"time"

	"repro/internal/obs"
)

// Index metrics, visible in obs.Snapshot() and on /metrics when
// collection is enabled. Names are documented in docs/indexing.md.
var (
	mBuilds          = obs.NewCounter("index_builds_total")
	mAdvances        = obs.NewCounter("index_advances_total")
	mBuildNs         = obs.NewHistogram("index_build_ns")
	mCacheHits       = obs.NewCounter("index_snapshot_cache_hits_total")
	mCacheMisses     = obs.NewCounter("index_snapshot_cache_misses_total")
	mCacheEvictions  = obs.NewCounter("index_snapshot_cache_evictions_total")
	mSnapshotBuildNs = obs.NewHistogram("index_snapshot_build_ns")
)

func now() time.Time { return obs.Now() }
