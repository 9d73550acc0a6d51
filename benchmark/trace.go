package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// A span is one timed stage of one traced op. Spans come only from this
// package: decorators and client-side timers record them in situ, and
// after each op every layer is replayed through its public API on the
// inputs the op just used (Replay is set on those, and their timestamps
// lie after the op rather than inside it). Spans inside internal/ are a
// later change.
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	Class    string `json:"class,omitempty"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Replay   bool   `json:"replay,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer holds the spans and counts of one traced repetition in memory;
// they are written out once, when the benchmark ends.
type tracer struct {
	workload string
	base     time.Time

	mu     sync.Mutex // the source decorator records from the server's goroutine
	op     int
	spans  []span
	counts map[string]float64
	// samples are per-op durations that are not spans (the unattributed
	// remainder), keyed like span names.
	samples map[string][]float64
	// nested counts in-situ child spans that end after, or start before,
	// their parent: any fails the run. Replayed children are estimates —
	// a replay can hit a slow fsync or a GC cycle the op did not — so for
	// them overruns counts the ops whose children sum to more than the op.
	// That share is reported (trace.overrun_op_share) and warned about,
	// not failed on: it says how far to trust the remainder.
	nested     int
	attributed int
	overruns   int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now(), counts: make(map[string]float64), samples: make(map[string][]float64)}
}

// beginOp sets the op index the following spans belong to.
func (t *tracer) beginOp(i int) {
	t.mu.Lock()
	t.op = i
	t.mu.Unlock()
}

// add records one span and returns its duration.
func (t *tracer) add(name, parent, class string, start, end time.Time, replay bool) time.Duration {
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Workload: t.workload, Op: t.op, Name: name, Parent: parent, Class: class,
		StartNs: start.Sub(t.base).Nanoseconds(), EndNs: end.Sub(t.base).Nanoseconds(), Replay: replay,
	})
	t.mu.Unlock()
	return end.Sub(start)
}

// inSitu records a span measured while the op ran.
func (t *tracer) inSitu(name, parent string, start, end time.Time) time.Duration {
	return t.add(name, parent, "", start, end, false)
}

// replay times fn — one layer's public entry point, called on the inputs
// the op just used — and records it as a replayed child of parent.
func (t *tracer) replay(name, parent, class string, fn func()) time.Duration {
	start := time.Now()
	fn()
	return t.add(name, parent, class, start, time.Now(), true)
}

func (t *tracer) count(name string, delta float64) {
	t.mu.Lock()
	t.counts[name] += delta
	t.mu.Unlock()
}

// attribute closes one op's accounting: children is what its in-situ and
// replayed child spans sum to. It returns the unattributed remainder (0
// when the children overrun the op).
func (t *tracer) attribute(op, children time.Duration) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attributed++
	if children > op {
		t.overruns++
		return 0
	}
	return op - children
}

// sample records a per-op duration that is not a span.
func (t *tracer) sample(name string, d time.Duration) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], us(d))
	t.mu.Unlock()
}

// checkNesting verifies that every in-situ span lies inside its parent
// span of the same op.
func (t *tracer) checkNesting() {
	type key struct {
		op   int
		name string
	}
	byName := make(map[key]span)
	for _, s := range t.spans {
		if !s.Replay {
			byName[key{s.Op, s.Name}] = s
		}
	}
	for _, s := range t.spans {
		if s.Replay || s.Parent == "" {
			continue
		}
		p, ok := byName[key{s.Op, s.Parent}]
		if !ok || s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			t.nested++
		}
	}
}

// durations groups span durations by name (and by name.class when the
// span has a class), in microseconds.
func (t *tracer) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for k, v := range t.samples {
		out[k] = v
	}
	for _, s := range t.spans {
		d := us(s.dur())
		out[s.Name] = append(out[s.Name], d)
		if s.Class != "" {
			k := s.Name + "." + s.Class
			out[k] = append(out[k], d)
		}
	}
	return out
}

func maxOf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if x > m {
			m = x
		}
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (the layer was not exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// writeSpans writes the collected spans as one JSON array.
func writeSpans(path string, tracers []*tracer) error {
	var all []span
	for _, t := range tracers {
		all = append(all, t.spans...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// layerMetric names one per-layer metric and how it is derived from the
// traced repetition.
type layerMetric struct {
	Name string
	Unit string
	// Better is the direction a reader should want; it is reported in
	// BENCHMARK.json and carries no bound.
	Better string
	// Span, when set, makes the metric a timing: the p50 (the maximum when
	// Name ends in _max) of the durations of the spans of that name, or of
	// that name.class. Metrics without a span are counts and shares.
	Span string
}

// layerMetrics is the closed list of per-layer metrics, in report order.
// BENCHMARK.json's per_layer section must list exactly these names.
var layerMetrics = []layerMetric{
	{"wrapper.poll_us", "us", "lower", "wrapper.poll"},
	{"lorel.polling_eval_us", "us", "lower", "lorel.polling_eval"},
	{"lorel.filter_eval_us", "us", "lower", "lorel.filter_eval"},
	{"lorel.parse_us", "us", "lower", "lorel.parse"},
	{"lorel.canon_us", "us", "lower", "lorel.canon"},
	{"lorel.plan_us", "us", "lower", "lorel.plan"},
	{"lorel.eval_us", "us", "lower", "lorel.eval"},
	{"lorel.emit_us", "us", "lower", "lorel.emit"},
	{"lorel.eval_us.cre", "us", "lower", "lorel.eval.cre"},
	{"lorel.eval_us.upd", "us", "lower", "lorel.eval.upd"},
	{"lorel.eval_us.add", "us", "lower", "lorel.eval.add"},
	{"lorel.eval_us.at_hot", "us", "lower", "lorel.eval.at_hot"},
	{"lorel.eval_us.at_cold", "us", "lower", "lorel.eval.at_cold"},
	{"lorel.eval_us.join", "us", "lower", "lorel.eval.join"},
	{"lorel.eval_us.agg", "us", "lower", "lorel.eval.agg"},
	{"lorel.eval_us.exists", "us", "lower", "lorel.eval.exists"},
	{"lorel.eval_us.xlate", "us", "lower", "lorel.eval.xlate"},
	{"lorel.bindings_per_row", "ratio", "lower", ""},
	{"lorel.parse_cache_hit_share", "ratio", "higher", ""},
	{"lorel.plan_cache_hit_share", "ratio", "higher", ""},
	{"chorel.translate_us", "us", "lower", "chorel.translate"},
	{"chorel.translated_eval_us", "us", "lower", "lorel.eval.xlate"},
	{"encoding.encode_ms", "ms", "lower", "encoding.encode"},
	{"index.build_ms", "ms", "lower", "index.build"},
	{"index.view_cache_hit_share", "ratio", "higher", ""},
	{"oemdiff.diff_us", "us", "lower", "oemdiff.diff"},
	{"oemdiff.ops_per_poll", "count", "lower", ""},
	{"doem.apply_us", "us", "lower", "doem.apply"},
	{"doem.annotations", "count", "lower", ""},
	{"wal.append_us", "us", "lower", "wal.append"},
	{"wal.bytes_per_op", "B", "lower", ""},
	{"incr.decide_us", "us", "lower", "incr.decide"},
	{"incr.skip_share", "ratio", "higher", ""},
	{"oemio.marshal_us", "us", "lower", "oemio.marshal"},
	{"oemio.answer_bytes", "B", "lower", ""},
	{"qss.wire_rtt_us", "us", "lower", "qss.wire_rtt"},
	{"qss.notifications_per_poll", "ratio", "lower", ""},
	{"qss.history_drift_ratio", "ratio", "lower", ""},
	{"qss.unattributed_us", "us", "lower", "qss.unattributed"},
	{"qss.unattributed_share", "ratio", "lower", ""},
	{"lore.apply_us", "us", "lower", "lore.apply"},
	{"lore.apply_us_max", "us", "lower", "lore.apply"},
	{"lore.query_us", "us", "lower", "lore.query"},
	{"segment.seals", "count", "lower", ""},
	{"segment.seal_stall_ms_max", "ms", "lower", ""},
	{"segment.sealed_read_us", "us", "lower", "lore.query.at"},
	{"segment.active_read_us", "us", "lower", "lore.query.cre"},
	{"segment.disk_bytes_per_user_byte", "ratio", "lower", "segment.disk_bytes_perer_byte"},
	{"segment.open_ms", "ms", "lower", "segment.open"},
	{"trace.overrun_op_share", "ratio", "lower", ""},
	{"trace.overhead_share", "ratio", "lower", ""},
	{"trace.op_latency_p99_ms", "ms", "lower", ""},
}

// summarize derives every per-layer metric from the traced repetition.
// A layer the workload never reaches reports 0.
func (t *tracer) summarize() map[string]float64 {
	t.checkNesting()
	d := t.durations()
	c := t.counts
	out := make(map[string]float64, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.Name] = 0
	}
	for _, m := range layerMetrics {
		if m.Span == "" {
			continue
		}
		v := median(d[m.Span])
		if strings.HasSuffix(m.Name, "_max") {
			v = maxOf(d[m.Span])
		}
		if m.Unit == "ms" {
			v /= 1e3
		}
		out[m.Name] = v
	}
	// Counts and shares recorded where the work happens.
	out["lorel.bindings_per_row"] = ratio(c["lorel.bindings"], c["lorel.rows"])
	out["lorel.parse_cache_hit_share"] = ratio(c["lorel.parse_hits"], c["lorel.parse_hits"]+c["lorel.parse_misses"])
	out["lorel.plan_cache_hit_share"] = ratio(c["lorel.plan_hits"], c["lorel.plan_hits"]+c["lorel.plan_misses"])
	out["index.view_cache_hit_share"] = ratio(c["index.view_hit_ops"], c["index.view_ops"])
	out["oemdiff.ops_per_poll"] = ratio(c["oemdiff.ops"], c["qss.polls"])
	out["doem.annotations"] = c["doem.annotations"]
	out["wal.bytes_per_op"] = ratio(c["wal.bytes"], c["wal.ops"])
	out["incr.skip_share"] = ratio(c["incr.skips"], c["qss.polls"])
	out["oemio.answer_bytes"] = ratio(c["oemio.answer_bytes"], c["qss.notifications"])
	out["qss.notifications_per_poll"] = ratio(c["qss.notifications"], c["qss.polls"])
	out["qss.history_drift_ratio"] = c["qss.history_drift_ratio"]
	out["qss.unattributed_share"] = ratio(out["qss.unattributed_us"], median(d["op"]))
	out["segment.seals"] = c["segment.seals"]
	out["segment.seal_stall_ms_max"] = c["segment.seal_stall_ms_max"]
	out["segment.disk_bytes_per_user_byte"] = ratio(c["segment.disk_bytes"], c["segment.user_bytes"])
	out["trace.overrun_op_share"] = ratio(float64(t.overruns), float64(t.attributed))
	out["trace.overhead_share"] = c["trace.overhead_share"]
	out["trace.op_latency_p99_ms"] = c["trace.op_latency_p99_ms"]
	return out
}

// failure reports why the traced repetition is invalid, or "".
func (t *tracer) failure() string {
	if t.nested > 0 {
		return fmt.Sprintf("%d in-situ span(s) are not nested inside their parent", t.nested)
	}
	return ""
}
