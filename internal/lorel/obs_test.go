package lorel

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// tracedQuery runs one query with a fresh trace attached and returns the
// trace alongside the result.
func tracedQuery(t *testing.T, eng *Engine, q string) (*Result, *obs.Trace) {
	t.Helper()
	tr := obs.NewTrace(q)
	res, err := eng.QueryContext(obs.WithTrace(context.Background(), tr), q)
	if err != nil {
		t.Fatalf("%q: %v", q, err)
	}
	return res, tr
}

func spanNames(tr *obs.Trace) map[string]int {
	names := make(map[string]int)
	for _, sp := range tr.Spans() {
		names[sp.Name]++
	}
	return names
}

func TestQueryTraceSerial(t *testing.T) {
	e := syntheticEngine(t, 7, 12, 4, 4)
	const q = `select R.name from guide.restaurant R where R.price < 40`

	res, tr := tracedQuery(t, e, q)
	names := spanNames(tr)
	if names["parse"] != 1 || names["eval"] != 1 {
		t.Fatalf("want one parse and one eval span, got %v", names)
	}
	stats := tr.Stats()
	if stats["bindings"] < int64(len(res.Rows)) {
		t.Errorf("bindings stat %d < result rows %d", stats["bindings"], len(res.Rows))
	}
	if _, ok := stats["dedup_hits"]; !ok {
		t.Errorf("missing dedup_hits stat: %v", stats)
	}

	// Second run hits the query cache; the parse span says so.
	_, tr2 := tracedQuery(t, e, q)
	found := false
	for _, sp := range tr2.Spans() {
		if sp.Name == "parse" && strings.Contains(sp.Note, "cache=hit") {
			found = true
		}
	}
	if !found {
		t.Errorf("cached parse span not marked cache=hit: %+v", tr2.Spans())
	}
}

// TestQueryTraceParallel: queries traced by concurrent callers of one
// engine each get their own trace, with the spans and stat counters the
// same query records when it runs alone.
func TestQueryTraceParallel(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	e := syntheticEngine(t, 7, 16, 5, 5)
	queries := []string{
		`select R.name from guide.restaurant R where R.price < 40`,
		`select guide.#`,
	}
	alone := make([]map[string]int64, len(queries))
	for i, q := range queries {
		tracedQuery(t, e, q) // warm the parse cache, so every later parse span is a hit
		_, tr := tracedQuery(t, e, q)
		alone[i] = tr.Stats()
	}
	var wg sync.WaitGroup
	traces := make([][]*obs.Trace, len(queries))
	for i, q := range queries {
		traces[i] = make([]*obs.Trace, 10)
		for k := range traces[i] {
			wg.Add(1)
			go func(tr **obs.Trace) {
				defer wg.Done()
				*tr = obs.NewTrace(q)
				if _, err := e.QueryContext(obs.WithTrace(context.Background(), *tr), q); err != nil {
					t.Error(err)
				}
			}(&traces[i][k])
		}
	}
	wg.Wait()
	for i, q := range queries {
		for _, tr := range traces[i] {
			if names := spanNames(tr); names["parse"] != 1 || names["eval"] != 1 {
				t.Errorf("%q: want one parse and one eval span, got %v", q, names)
			}
			for _, k := range []string{"bindings", "dedup_hits"} {
				if got := tr.Stats()[k]; got != alone[i][k] {
					t.Errorf("%q: %s = %d beside concurrent callers, %d alone", q, k, got, alone[i][k])
				}
			}
		}
	}
}

// TestConcurrentTracedQueries drives one engine from many goroutines with
// metrics collection on and a live trace per query — the configuration
// the race detector must clear for the -admin endpoint to be safe on a
// serving qss.
func TestConcurrentTracedQueries(t *testing.T) {
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)

	e := syntheticEngine(t, 11, 16, 5, 5)
	queries := []string{
		`select R.name from guide.restaurant R where R.price < 25`,
		`select C from guide.restaurant.<add at T>comment C where T > t[-2]`,
		`select guide.#`,
	}
	want := make([]string, len(queries))
	for i, q := range queries {
		res, err := e.Query(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		want[i] = res.String()
	}

	var wg sync.WaitGroup
	errCh := make(chan string, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				qi := (w + i) % len(queries)
				tr := obs.NewTrace(queries[qi])
				res, err := e.QueryContext(obs.WithTrace(context.Background(), tr), queries[qi])
				if err != nil {
					errCh <- err.Error()
					return
				}
				if res.String() != want[qi] {
					errCh <- "concurrent traced result differs: " + queries[qi]
					return
				}
				if len(tr.Spans()) == 0 {
					errCh <- "empty trace for " + queries[qi]
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for msg := range errCh {
		t.Error(msg)
	}
}

// The evaluation hot path with instrumentation compiled in but collection
// off — the default configuration — versus collection on and versus a
// fully traced query. Compare BenchmarkEvalObsDisabled with
// BenchmarkEvalObsEnabled to see the collection cost; the disabled run is
// the baseline every untraced query pays.
func benchEval(b *testing.B, enabled, traced bool) {
	prev := obs.SetEnabled(enabled)
	defer obs.SetEnabled(prev)
	e := syntheticEngine(b, 7, 16, 5, 5)
	const q = `select R.name from guide.restaurant R where R.price < 40`
	if _, err := e.Query(q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := context.Background()
		if traced {
			ctx = obs.WithTrace(ctx, obs.NewTrace(q))
		}
		if _, err := e.QueryContext(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvalObsDisabled(b *testing.B) { benchEval(b, false, false) }
func BenchmarkEvalObsEnabled(b *testing.B)  { benchEval(b, true, false) }
func BenchmarkEvalTraced(b *testing.B)      { benchEval(b, true, true) }
