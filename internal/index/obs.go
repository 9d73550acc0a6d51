package index

import (
	"os"
	"sync/atomic"
	"time"

	"repro/internal/doem"
	"repro/internal/lorel"
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

// disabled flips the package-wide default from indexed to unindexed. It
// only affects Wrap; explicitly constructed Graphs keep working.
var disabled atomic.Bool

func init() {
	if v := os.Getenv("REPRO_NOINDEX"); v != "" && v != "0" {
		disabled.Store(true)
	}
}

// Enabled reports whether Wrap currently returns indexed graphs. The
// default is on; the REPRO_NOINDEX environment variable or a -noindex
// command flag (via SetEnabled) turns it off.
func Enabled() bool { return !disabled.Load() }

// SetEnabled sets the package-wide default and returns the previous value.
func SetEnabled(on bool) (prev bool) { return !disabled.Swap(!on) }

// Wrap returns d behind an indexed Graph when indexing is enabled, or d
// itself (the unindexed baseline) when it is not. This is the single
// switch point the engines register their databases through.
func Wrap(d *doem.Database) lorel.Graph {
	if !Enabled() {
		return d
	}
	return NewGraph(d)
}
