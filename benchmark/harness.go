package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// opTimeout is how long one op may take before it counts as failed.
const opTimeout = 5 * time.Second

// maxFailureNotes bounds the failure messages kept per repetition.
const maxFailureNotes = 5

// rep is one repetition of a workload: a full set-up followed by the
// timed phase over the fixed op list. A run makes several repetitions and
// reports the median of each metric, so one noisy stretch on a shared box
// moves at most one of them.
type rep struct {
	seed int64
	sz   sizes
	dir  string  // data directory, fresh for this repetition
	tr   *tracer // nil unless this repetition is traced

	start time.Time // set-up began
	t0    time.Time // timed phase began
	m0    runtime.MemStats

	mu       sync.Mutex
	lats     [][]time.Duration // per caller, in op-list order
	failed   int
	failures []string

	// extra holds in-situ counts cheap enough to take on every repetition
	// (seals and the longest stall they caused); the traced run reports
	// them from its untraced repetition.
	extra map[string]float64

	setup      time.Duration
	wall       time.Duration
	allocBytes uint64
	liveHeap   uint64

	// watchdog fires when an op exceeds opTimeout; abort is what it calls
	// (closing the client connection or cancelling the query context), so
	// a stuck op fails instead of hanging the run.
	watchdog *time.Timer
}

func newRep(w *workload, seed int64, sz sizes, dir string, tr *tracer) *rep {
	return &rep{
		seed: seed, sz: sz, dir: dir, tr: tr, start: time.Now(),
		lats: make([][]time.Duration, w.callers), extra: make(map[string]float64),
	}
}

// prefix returns the latencies of the first n ops of the op list: the
// first n/callers of every caller. all is every latency.
func (r *rep) prefix(n int) []time.Duration {
	var out []time.Duration
	for _, l := range r.lats {
		out = append(out, l[:n/len(r.lats)]...)
	}
	return out
}

func (r *rep) all() []time.Duration {
	n := 0
	for _, l := range r.lats {
		n += len(l)
	}
	return r.prefix(n)
}

// quarters returns the median latency of the first and of the last
// quarter of every caller's op list: how far cost follows history.
func (r *rep) quarters() (first, last time.Duration) {
	var head, tail []time.Duration
	for _, l := range r.lats {
		q := (len(l) + 3) / 4
		head = append(head, l[:q]...)
		tail = append(tail, l[len(l)-q:]...)
	}
	first, _ = percentile(sortedCopy(head), 0.50)
	last, _ = percentile(sortedCopy(tail), 0.50)
	return first, last
}

// arm starts the per-op watchdog. Each op calls tick when it begins.
func (r *rep) arm(abort func()) {
	r.watchdog = time.AfterFunc(opTimeout, func() {
		r.fail("op exceeded %s; aborting the repetition", opTimeout)
		abort()
	})
}

func (r *rep) tick() { r.watchdog.Reset(opTimeout) }

// disarm stops the watchdog and drops it: its abort closure holds the
// workload's state, which must not outlive the repetition (the next one's
// live_heap_mb would count it).
func (r *rep) disarm() {
	if r.watchdog != nil {
		r.watchdog.Stop()
		r.watchdog = nil
	}
}

// beginTimed ends set-up: everything before this call is setup_s.
func (r *rep) beginTimed() {
	runtime.GC()
	runtime.ReadMemStats(&r.m0)
	r.t0 = time.Now()
	r.setup = r.t0.Sub(r.start)
}

// endTimed closes the timed phase. The caller must still hold the
// workload's state (server, store, database) so live_heap_mb sees it.
func (r *rep) endTimed() {
	r.wall = time.Since(r.t0)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.allocBytes = m.TotalAlloc - r.m0.TotalAlloc
	// Two collections: the first only moves sync.Pool contents (encoder
	// and decoder buffers) to the victim cache, the second frees them.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	r.liveHeap = m.HeapAlloc
}

// done records one completed op of a caller and whether its answer was
// right.
func (r *rep) done(caller int, lat time.Duration, ok bool) {
	r.mu.Lock()
	r.lats[caller] = append(r.lats[caller], lat)
	if !ok {
		r.failed++
	}
	r.mu.Unlock()
}

// fail records why an op (or a post-run check) failed. It does not count
// the op: done(…, false) does that for ops, check failures count here.
func (r *rep) fail(format string, args ...any) {
	r.mu.Lock()
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

// checkFailed counts a failed post-run check as one failed op.
func (r *rep) checkFailed(format string, args ...any) {
	r.fail(format, args...)
	r.mu.Lock()
	r.failed++
	r.mu.Unlock()
}

// percentile returns the q-quantile (0..1) of sorted by the nearest-rank
// rule, and how many samples lie beyond it.
func percentile(sorted []time.Duration, q float64) (time.Duration, int) {
	if len(sorted) == 0 {
		return 0, 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i], len(sorted) - 1 - i
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a float sample (mean of the middle two when even).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// endToEnd computes the repetition's end-to-end metrics.
func (r *rep) endToEnd() map[string]float64 {
	s := sortedCopy(r.all())
	p50, _ := percentile(s, 0.50)
	p95, _ := percentile(s, 0.95)
	n := float64(len(s))
	return map[string]float64{
		"op_latency_p50_ms": ms(p50),
		"op_latency_p95_ms": ms(p95),
		"ops_per_s":         n / r.wall.Seconds(),
		"alloc_kb_per_op":   float64(r.allocBytes) / 1024 / n,
		"live_heap_mb":      float64(r.liveHeap) / (1 << 20),
		"setup_s":           r.setup.Seconds(),
	}
}

// dirSize sums the sizes of the regular files under dir.
func dirSize(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
