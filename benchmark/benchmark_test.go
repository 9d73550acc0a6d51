package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallSizes scales every workload down to about 1/50 (a 100-restaurant
// source, tens of ops) so the smoke test runs all four, timed and traced,
// in a few seconds.
var smallSizes = map[string]sizes{
	"notify_changed": {Restaurants: 100, Ops: 16, Warmup: 2},
	"notify_idle":    {Restaurants: 100, Ops: 4 * idleSubs, Warmup: idleSubs},
	"query_history":  {Restaurants: 100, HistorySteps: 30, OpsPerStep: 10, Ops: 40 * len(queryClasses), Warmup: len(queryClasses)},
	"store_mixed":    {Restaurants: 100, HistorySteps: 60, OpsPerStep: 20, Ops: 16, Warmup: 2},
}

func smallWorkload(t *testing.T, name string) workload {
	t.Helper()
	w := *workloadNamed(name)
	w.sizes = func(float64) sizes { return smallSizes[name] }
	return w
}

func testOptions(t *testing.T, trace bool) options {
	dir := t.TempDir()
	return options{
		seed: 7, seconds: 1, trace: trace,
		dataDir: filepath.Join(dir, "data"), outDir: filepath.Join(dir, "out"),
		log: io.Discard,
	}
}

// benchmarkJSON is the contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestContractMatchesProgram keeps BENCHMARK.json and the program's own
// tables the same list: workloads, end-to-end metrics with bounds, and
// per-layer metrics.
func TestContractMatchesProgram(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.Name || c.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.Name, w.Why)
		}
	}
	if len(c.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(c.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range endToEndMetrics {
		if got := c.EndToEnd[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
	if len(c.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(c.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if got := c.PerLayer[i]; got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
	}
}

// fingerprint renders generated inputs as text, for the determinism test
// (same seed, same bytes).
func (in *notifyInputs) fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "source nodes=%d arcs=%d\n", in.Source.NumNodes(), in.Source.NumArcs())
	for _, m := range in.Mutations {
		fmt.Fprintf(&b, "%+v\n", m)
	}
	return b.String()
}

func (in *queryInputs) fingerprint() string {
	var b strings.Builder
	b.WriteString(in.History.String())
	for _, ops := range append([][]queryOp{in.Warmup}, in.Callers[:]...) {
		for _, op := range ops {
			fmt.Fprintf(&b, "%s\t%s\n", op.Class, op.Text)
		}
	}
	return b.String()
}

func (in *storeInputs) fingerprint() string {
	var b strings.Builder
	b.WriteString(in.Preload.String())
	for _, r := range in.Rounds {
		fmt.Fprintf(&b, "%s %s\n", r.At, r.Set)
		for _, q := range r.Queries {
			fmt.Fprintf(&b, "%s\t%s\n", q.Class, q.Text)
		}
	}
	return b.String()
}

// TestGeneratorDeterministic: the same seed gives byte-identical inputs; a
// different seed gives different inputs of the same size.
func TestGeneratorDeterministic(t *testing.T) {
	gens := map[string]func(seed int64) (fingerprint string, ops int){
		"notify_changed": func(seed int64) (string, int) {
			in := genNotifyChanged(seed, smallSizes["notify_changed"])
			return in.fingerprint(), len(in.Mutations)
		},
		"notify_idle": func(seed int64) (string, int) {
			in := genNotifyIdle(seed, smallSizes["notify_idle"])
			return in.fingerprint(), len(in.Mutations)
		},
		"query_history": func(seed int64) (string, int) {
			in := genQueryHistory(seed, smallSizes["query_history"])
			return in.fingerprint(), len(in.Warmup) + len(in.Callers[0]) + len(in.Callers[1])
		},
		"store_mixed": func(seed int64) (string, int) {
			in := genStoreMixed(seed, smallSizes["store_mixed"])
			return in.fingerprint(), len(in.Rounds)
		},
	}
	for name, gen := range gens {
		a, na := gen(11)
		b, nb := gen(11)
		c, nc := gen(12)
		if a != b {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if a == c {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
		if na != nb || na != nc || na == 0 {
			t.Errorf("%s: op counts %d, %d, %d; want equal and positive", name, na, nb, nc)
		}
	}
}

// reached lists, per workload, the per-layer metrics its traced run must
// report above 0 — a layer stuck at 0 means a span or replay silently
// stopped being made. qss.unattributed_us is left out: at this scale the
// remainder is within the replays' noise and its median is often 0.
var reached = map[string][]string{
	"notify_changed": {"wrapper.poll_us", "lorel.polling_eval_us", "lorel.filter_eval_us", "index.build_ms", "oemdiff.diff_us",
		"doem.apply_us", "wal.append_us", "wal.bytes_per_op", "incr.decide_us", "oemio.marshal_us", "oemio.answer_bytes",
		"qss.wire_rtt_us", "qss.notifications_per_poll", "doem.annotations"},
	"notify_idle": {"wrapper.poll_us", "lorel.polling_eval_us", "oemdiff.diff_us", "wal.append_us", "incr.skip_share",
		"qss.wire_rtt_us"},
	"query_history": {"lorel.parse_us", "lorel.canon_us", "lorel.plan_us", "lorel.eval_us", "lorel.emit_us", "lorel.eval_us.cre",
		"lorel.eval_us.upd", "lorel.eval_us.add", "lorel.eval_us.at_hot", "lorel.eval_us.at_cold", "lorel.eval_us.join",
		"lorel.eval_us.agg", "lorel.eval_us.exists", "lorel.eval_us.xlate", "lorel.bindings_per_row", "lorel.parse_cache_hit_share",
		"lorel.plan_cache_hit_share", "chorel.translate_us", "chorel.translated_eval_us", "encoding.encode_ms", "index.build_ms",
		"index.view_cache_hit_share"},
	"store_mixed": {"lore.apply_us", "lore.apply_us_max", "lore.query_us", "doem.apply_us", "lorel.eval_us", "segment.seals",
		"segment.seal_stall_ms_max", "segment.sealed_read_us", "segment.active_read_us", "segment.disk_bytes_per_user_byte",
		"segment.open_ms"},
}

// TestSmoke runs all four workloads, timed and traced, at about 1/50
// scale, and checks that every metric BENCHMARK.json names is emitted once
// with a finite value, that no op failed, and that spans nest.
func TestSmoke(t *testing.T) {
	c := readContract(t)
	for _, cw := range c.Workloads {
		w := smallWorkload(t, cw.Name)
		res, tr, err := runWorkload(&w, testOptions(t, false))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if tr != nil || !res.Correct || res.Failed != 0 || res.Attempted != repetitions*smallSizes[w.Name].Ops {
			t.Errorf("%s: correct=%v failed=%d attempted=%d", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(c.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(res.Metrics), len(c.EndToEnd))
		}
		for _, m := range c.EndToEnd {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || !(got.Value > 0) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: end-to-end metric %s = %+v (present=%v)", w.Name, m.Name, got, ok)
			}
		}

		opt := testOptions(t, true)
		res, tr, err = runWorkload(&w, opt)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d (%s)", w.Name, res.Correct, res.Failed, tr.failure())
		}
		if tr.nested != 0 {
			t.Errorf("%s traced: %d in-situ spans lie outside their parent", w.Name, tr.nested)
		}
		for _, m := range reached[w.Name] {
			if !(res.Metrics[m].Value > 0) {
				t.Errorf("%s traced: %s = %v; the workload should reach this layer", w.Name, m, res.Metrics[m].Value)
			}
		}
		if len(res.Metrics) != len(c.PerLayer) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", w.Name, len(res.Metrics), len(c.PerLayer))
		}
		for _, m := range c.PerLayer {
			got, ok := res.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s traced: per-layer metric %s = %+v (present=%v)", w.Name, m.Name, got, ok)
			}
		}
		path := filepath.Join(opt.outDir, "spans.json")
		if err := writeSpans(path, []*tracer{tr}); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var spans []span
		if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: span file holds %d spans (%v)", w.Name, len(spans), err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := endToEndMetric{Name: "op_latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := endToEndMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		m    endToEndMetric
		a, b []float64
		want string
	}{
		{lower, steady, []float64{100, 103, 98, 101, 100}, "same"},
		{lower, steady, []float64{120, 121, 119, 122, 120}, "worse"},
		{lower, steady, []float64{80, 81, 79, 80, 82}, "better"},
		{higher, steady, []float64{120, 121, 119, 122, 120}, "better"},
		{higher, steady, []float64{80, 81, 79, 80, 82}, "worse"},
		{lower, steady, []float64{80, 140, 100, 60, 120}, "unresolved"},
	} {
		if got, _, _, _, _ := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.m.Name, tc.a, tc.b, got, tc.want)
		}
	}
	// quartiles follows Python's statistics.quantiles(v, n=4).
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		path := filepath.Join(dir, name)
		opt := options{report: path, seed: 1, seconds: 12}
		for i := 0; i < 3; i++ {
			res := result{Correct: true, Attempted: 10, Metrics: map[string]metricValue{
				"op_latency_p50_ms": {Value: p50 + float64(i)/10, Unit: "ms"},
			}}
			if err := appendRecord(opt, "notify_changed", res); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a, b := write("a.jsonl", 20), write("b.jsonl", 30)
	var out strings.Builder
	if err := compareReports(&out, a, b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "notify_changed") {
		t.Errorf("compare output lacks the verdict:\n%s", out.String())
	}
}
