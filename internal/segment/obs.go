package segment

import (
	"os"
	"sync/atomic"

	"repro/internal/obs"
)

// Segment metrics, visible in obs.Snapshot() and on /metrics when
// collection is enabled. Names are documented in docs/segments.md.
var (
	mSeals       = obs.NewCounter("segment_seals_total")
	mSealNs      = obs.NewHistogram("segment_seal_ns")
	mIdxLoads    = obs.NewCounter("segment_index_loads_total")
	mIdxLoadNs   = obs.NewHistogram("segment_index_load_ns")
	mIdxRebuilds = obs.NewCounter("segment_index_rebuilds_total")
	mDemotions   = obs.NewCounter("segment_demotions_total")
	mPromotions  = obs.NewCounter("segment_promotions_total")
	mQuarantined = obs.NewCounter("segment_quarantined_total")
	mOpenNs      = obs.NewHistogram("segment_open_ns")
	// mStatsRebuilds counts full recounts of the planner statistics; in
	// steady state Store.Apply advances them and this stays flat.
	mStatsRebuilds = obs.NewCounter("segment_stats_rebuilds_total")
	gSegments      = obs.NewGauge("segment_count")
	gHotSegments   = obs.NewGauge("segment_hot_count")
	gColdSegments  = obs.NewGauge("segment_cold_count")
	gActiveAnnots  = obs.NewGauge("segment_active_annotations")
)

// enabled flips the package-wide default from monolithic WAL storage to
// segmented storage in lore.OpenWAL and the command-line front ends.
// Segmented storage is opt-in: the REPRO_SEGMENTS environment variable or
// a -segments command flag (via SetEnabled) turns it on.
var pkgEnabled atomic.Bool

func init() {
	if v := os.Getenv("REPRO_SEGMENTS"); v != "" && v != "0" {
		pkgEnabled.Store(true)
	}
}

// Enabled reports whether segmented storage is the package-wide default.
func Enabled() bool { return pkgEnabled.Load() }

// SetEnabled sets the package-wide default and returns the previous value.
func SetEnabled(on bool) (prev bool) { return pkgEnabled.Swap(on) }
