// Command benchmark is the repository's end-to-end, layer-attributed
// benchmark: source change -> notification in a client's hands over a real
// socket, and Chorel text -> result rows over real history. See README.md.
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh                       # all workloads, timed
//	bash benchmark/run.sh --trace 1             # all workloads, traced
//	bash benchmark/run.sh -compare A.jsonl B.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/obs"
)

// repetitions is how many times one run sets the workload up and times
// its op list; every reported metric is the median over them.
const repetitions = 3

// workload describes one benchmark workload.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// sizes returns the fixed input sizes for a timed phase calibrated to
	// take about the given number of seconds at the commit that introduced
	// the benchmark.
	sizes func(seconds float64) sizes
	// callers is the number of concurrent closed-loop callers; group is
	// the unit op lists are cut in (a notify_idle cycle, one op per
	// caller), so that a prefix of the list is made of whole units.
	callers, group int
	run            func(r *rep) error
}

// atLeast keeps scaled-down op counts usable.
func atLeast(n, min int) int {
	if n < min {
		return min
	}
	return n
}

var workloads = []workload{
	{
		Name: "notify_changed",
		Why:  "every poll finds a relevant change: Figure 6 end to end, all of eval, diff, apply, WAL, index, filter, encode and wire do work",
		sizes: func(s float64) sizes {
			return sizes{Restaurants: 1000, Ops: atLeast(int(40*s), 8), Warmup: 5}
		},
		callers: 1, group: 1,
		run: runNotifyChanged,
	},
	{
		Name: "notify_idle",
		Why:  "most polls find nothing (1 in 16 notifies): source clone, polling query, packaging and an empty diff dominate",
		sizes: func(s float64) sizes {
			return sizes{Restaurants: 1000, Ops: atLeast(int(8*s), 2) * idleSubs, Warmup: 2 * idleSubs}
		},
		callers: 1, group: idleSubs,
		run: runNotifyIdle,
	},
	{
		Name: "query_history",
		Why:  "read-only Chorel, nine query classes, two callers on one indexed DB: lorel, plan, index and their caches do all the work",
		sizes: func(s float64) sizes {
			return sizes{Restaurants: 2000, HistorySteps: 300, OpsPerStep: 20, Ops: atLeast(int(125*s)*queryCallers, 2*len(queryClasses)), Warmup: 2 * len(queryClasses)}
		},
		callers: queryCallers, group: queryCallers,
		run: runQueryHistory,
	},
	{
		Name: "store_mixed",
		Why:  "writes beside reads on the segmented store: each write invalidates what the reads built and sometimes seals",
		sizes: func(s float64) sizes {
			return sizes{Restaurants: 2000, HistorySteps: 200, OpsPerStep: 20, Ops: atLeast(int(24*s), 4), Warmup: 3}
		},
		callers: 1, group: 1,
		run: runStoreMixed,
	},
}

func workloadNamed(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// endToEndMetric is one user-visible metric and the share of the parent's
// median by which it may worsen before a change counts as a regression.
type endToEndMetric struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEndMetrics must match BENCHMARK.json's end_to_end section.
var endToEndMetrics = []endToEndMetric{
	{"op_latency_p50_ms", "ms", "lower", 0.25},
	{"op_latency_p95_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"alloc_kb_per_op", "KiB", "lower", 0.05},
	{"live_heap_mb", "MiB", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as kept in a --report file (JSON lines), which
// -compare reads.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Go       string  `json:"go"`
	Commit   string  `json:"commit"`
	result
}

// options are the parsed command-line settings of a run.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	report  string
	dataDir string // where repetitions keep their files
	outDir  string // where the span file goes
	log     io.Writer
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 15, "selects the length of the fixed op list: ops are sized so the timed phases take about this long at the benchmark's introducing commit")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics and the span file; 0 = end-to-end metrics")
		report  = flag.String("report", "", "append each run's result to this JSON-lines file (input of -compare)")
		compare = flag.Bool("compare", false, "compare two report files: -compare A.jsonl B.jsonl")
	)
	flag.Parse()
	// The packages under test log store opens through the standard logger;
	// the report does not need them.
	log.SetOutput(io.Discard)
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.jsonl B.jsonl")
			os.Exit(2)
		}
		if err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds must be positive")
		os.Exit(2)
	}
	opt := options{
		seed: *seed, seconds: *seconds, trace: *trace != 0, report: *report,
		dataDir: filepath.Join(".bench_build", "data"), outDir: filepath.Join("benchmark", "out"),
		log: os.Stdout,
	}
	selected := workloads
	if *name != "" {
		w := workloadNamed(*name)
		if w == nil {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
			os.Exit(2)
		}
		selected = []workload{*w}
	}
	printEnvironment(opt)
	ok := true
	var tracers []*tracer
	for _, w := range selected {
		res, tr, err := runWorkload(&w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		if tr != nil {
			tracers = append(tracers, tr)
		}
		if opt.report != "" {
			if err := appendRecord(opt, w.Name, res); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				os.Exit(1)
			}
		}
		ok = ok && res.Correct
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if len(selected) > 1 {
			fmt.Printf("result %s ", w.Name)
		}
		fmt.Printf("%s\n", line)
	}
	if len(tracers) > 0 {
		path := filepath.Join(opt.outDir, fmt.Sprintf("spans-seed%d.json", opt.seed))
		if err := writeSpans(path, tracers); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchmark: spans written to %s\n", path)
	}
	if !ok {
		os.Exit(1)
	}
}

func commit() string {
	bi := obs.ReadBuildInfo()
	if bi.Revision != "" {
		return bi.Revision
	}
	return "unknown"
}

func printEnvironment(opt options) {
	mode := "timed (obs collection off, the production default)"
	if opt.trace {
		mode = "traced (obs collection on in the traced repetition)"
	}
	fmt.Fprintf(opt.log, "benchmark: %s go=%s GOMAXPROCS=%d nproc=%d commit=%s seed=%d seconds=%g repetitions=%d\n",
		mode, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), commit(), opt.seed, opt.seconds, repetitions)
	fmt.Fprintln(opt.log, "benchmark: closed loop, fixed op lists; WAL and segment tails flush with wal.SyncAlways (fsync per append) on every run")
}

// runWorkload makes one run: several repetitions of set-up plus timed
// phase (or, traced, one untraced and one traced repetition), reporting
// the median of each metric.
func runWorkload(w *workload, opt options) (result, *tracer, error) {
	sz := w.sizes(opt.seconds / repetitions)
	base := filepath.Join(opt.dataDir, fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(base)
	one := func(i int, sz sizes, tr *tracer) (*rep, error) {
		dir := filepath.Join(base, fmt.Sprintf("rep%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		r := newRep(w, opt.seed, sz, dir, tr)
		if err := w.run(r); err != nil {
			return nil, err
		}
		if n := len(r.all()); n != sz.run() {
			r.checkFailed("%d of %d ops completed", n, sz.run())
		}
		for _, f := range r.failures {
			fmt.Fprintf(opt.log, "  FAILED %s rep %d: %s\n", w.Name, i, f)
		}
		return r, nil
	}
	fmt.Fprintf(opt.log, "\n%s — %s\n  sizes: %+v\n", w.Name, w.Why, sz)
	if opt.trace {
		return runTraced(w, opt, sz, one)
	}
	var reps []*rep
	for i := 0; i < repetitions; i++ {
		r, err := one(i, sz, nil)
		if err != nil {
			return result{}, nil, err
		}
		reps = append(reps, r)
	}
	res := result{Metrics: make(map[string]metricValue)}
	perRep := make([]map[string]float64, len(reps))
	for i, r := range reps {
		perRep[i] = r.endToEnd()
		res.Attempted += len(r.all())
		res.Failed += r.failed
	}
	res.Correct = res.Failed == 0
	s := sortedCopy(reps[0].all())
	_, beyond95 := percentile(s, 0.95)
	fmt.Fprintf(opt.log, "  %-20s %14s %-5s  per repetition\n", "end-to-end metric", "median", "unit")
	for _, m := range endToEndMetrics {
		var vals []float64
		for _, pr := range perRep {
			vals = append(vals, pr[m.Name])
		}
		res.Metrics[m.Name] = metricValue{Value: median(vals), Unit: m.Unit}
		note := ""
		switch m.Name {
		case "op_latency_p50_ms":
			note = fmt.Sprintf("  (%d samples per repetition)", len(s))
		case "op_latency_p95_ms":
			note = fmt.Sprintf("  (%d samples beyond it per repetition)", beyond95)
		}
		fmt.Fprintf(opt.log, "  %-20s %14.4f %-5s  %s%s\n", m.Name, median(vals), m.Unit, fmtVals(vals), note)
	}
	fmt.Fprintf(opt.log, "  %-20s %14.4f %-5s  (%d failed of %d attempted)\n", "failed_share", float64(res.Failed)/float64(res.Attempted), "ratio", res.Failed, res.Attempted)
	return res, nil, nil
}

func fmtVals(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// runTraced makes the traced run: one untraced repetition of the whole op
// list (for the drift ratio and the untraced baseline), then a traced
// repetition of its first quarter with obs collection on.
func runTraced(w *workload, opt options, sz sizes, one func(int, sizes, *tracer) (*rep, error)) (result, *tracer, error) {
	plain, err := one(0, sz, nil)
	if err != nil {
		return result{}, nil, err
	}
	quarter := sz
	// The first quarter of the list, in whole groups.
	quarter.Prefix = atLeast(sz.Ops/4/w.group, 1) * w.group
	tr := newTracer(w.Name)
	prev := obs.SetEnabled(true)
	traced, err := one(1, quarter, tr)
	obs.SetEnabled(prev)
	if err != nil {
		return result{}, nil, err
	}
	// Overhead: traced p50 over untraced p50 of the same ops, minus one.
	base, _ := percentile(sortedCopy(plain.prefix(quarter.Prefix)), 0.50)
	with, _ := percentile(sortedCopy(traced.all()), 0.50)
	tr.count("trace.overhead_share", float64(with)/float64(base)-1)
	all := sortedCopy(plain.all())
	p99, beyond99 := percentile(all, 0.99)
	tr.count("trace.op_latency_p99_ms", ms(p99))
	for name, v := range plain.extra {
		tr.count(name, v)
	}
	first, last := plain.quarters()
	tr.count("qss.history_drift_ratio", float64(last)/float64(first))

	layers := tr.summarize()
	res := result{
		Attempted: len(all) + len(traced.all()),
		Failed:    plain.failed + traced.failed,
		Metrics:   make(map[string]metricValue),
	}
	if msg := tr.failure(); msg != "" {
		fmt.Fprintf(opt.log, "  FAILED %s trace: %s\n", w.Name, msg)
		res.Failed++
	}
	res.Correct = res.Failed == 0
	if tr.overruns > 0 {
		fmt.Fprintf(opt.log, "  warning: on %d of %d ops the replayed child spans sum to more than the op; their remainder counts as 0\n", tr.overruns, tr.attributed)
	}
	fmt.Fprintf(opt.log, "  traced %d ops (first quarter), %d spans; p99 over %d untraced ops has %d samples beyond it\n",
		len(traced.all()), len(tr.spans), len(all), beyond99)
	fmt.Fprintf(opt.log, "  %-34s %14s %s\n", "per-layer metric", "value", "unit")
	for _, m := range layerMetrics {
		res.Metrics[m.Name] = metricValue{Value: layers[m.Name], Unit: m.Unit}
		fmt.Fprintf(opt.log, "  %-34s %14.4f %s\n", m.Name, layers[m.Name], m.Unit)
	}
	return res, tr, nil
}

func appendRecord(opt options, name string, res result) error {
	f, err := os.OpenFile(opt.report, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(record{
		Workload: name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Go: runtime.Version(), Commit: commit(), result: res,
	})
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
