package lorel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/timestamp"
)

// syntheticEngine builds an engine over a randomly evolved guide DOEM, with
// the history's step times installed as polling times.
func syntheticEngine(t testing.TB, seed int64, restaurants, steps, ops int) *Engine {
	t.Helper()
	initial, h := guidegen.GenerateHistory(seed, restaurants, steps, ops)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatalf("building DOEM: %v", err)
	}
	var times []timestamp.Time
	for _, step := range h {
		times = append(times, step.At)
	}
	e := NewEngine()
	e.Register("guide", d)
	e.SetPollTimes(times)
	return e
}

// gateGraph wraps a Graph so a test can freeze evaluation mid-query: after
// threshold Out calls it closes reached and blocks every subsequent Out
// until release is closed. This makes cancellation tests deterministic on
// any machine speed: the test cancels while evaluation is provably
// mid-flight, then releases and requires a prompt context.Canceled.
type gateGraph struct {
	Graph
	threshold int32
	calls     int32
	reached   chan struct{}
	release   chan struct{}
	once      sync.Once
}

func newGateGraph(g Graph, threshold int32) *gateGraph {
	return &gateGraph{Graph: g, threshold: threshold, reached: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateGraph) Out(n oem.NodeID) []oem.Arc {
	if atomic.AddInt32(&g.calls, 1) >= g.threshold {
		g.once.Do(func() { close(g.reached) })
		<-g.release
	}
	return g.Graph.Out(n)
}

func cancellationDB(t testing.TB) *doem.Database {
	t.Helper()
	initial, h := guidegen.GenerateHistory(2, 150, 3, 4)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// cancellableQuery starts a query over the gated graph registered as
// "guide" and waits until it is provably mid-flight. Reachability from
// every restaurant touches the whole shared parking/nearby-eats component:
// far more work than the gate threshold, so the query cannot finish first.
func cancellableQuery(t *testing.T, e *Engine, g *gateGraph) (cancel func(), done <-chan error) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan error, 1)
	go func() {
		_, err := e.QueryContext(ctx, `select C from guide.restaurant R, R.# C where C = "no such value"`)
		ch <- err
	}()
	select {
	case <-g.reached:
	case <-time.After(30 * time.Second):
		t.Fatal("query never reached the gate")
	}
	return cancel, ch
}

// requireCanceled releases the gate and requires the query to abort with
// context.Canceled.
func requireCanceled(t *testing.T, g *gateGraph, done <-chan error) {
	close(g.release)
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("query did not abort after cancellation")
	}
}

func TestCancellationSerial(t *testing.T) {
	g := newGateGraph(cancellationDB(t), 100)
	e := NewEngine()
	e.Register("guide", g)
	cancel, done := cancellableQuery(t, e, g)
	cancel()
	requireCanceled(t, g, done)
}

// TestCancellationParallel: while one caller's query is stuck mid-flight
// on a shared engine, another caller's queries run to completion with
// their usual answers, and cancelling the stuck one aborts it alone.
func TestCancellationParallel(t *testing.T) {
	d := cancellationDB(t)
	g := newGateGraph(d, 100)
	e := NewEngine()
	e.Register("plain", d)
	const q = `select R.name from plain.restaurant R where R.price < 25`
	want, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 {
		t.Fatal("reference query returned no rows; the comparison would be vacuous")
	}
	e.Register("guide", g)
	cancel, done := cancellableQuery(t, e, g)
	defer cancel()
	for i := 0; i < 3; i++ {
		got, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Fatalf("run %d beside a stuck query differs:\n%s\nwant:\n%s", i, got, want)
		}
	}
	cancel()
	requireCanceled(t, g, done)
}

// TestConcurrentEngineUse exercises one Engine from many goroutines —
// queries interleaved with SetPollTimes and Register — and relies on the
// race detector to catch unsynchronized state. It also checks that every
// concurrent query still returns the answer it returns alone.
func TestConcurrentEngineUse(t *testing.T) {
	// Metrics collection on, so the instrumentation hooks are part of
	// what the race detector checks here.
	prev := obs.SetEnabled(true)
	defer obs.SetEnabled(prev)
	e := syntheticEngine(t, 4, 20, 5, 5)
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
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				qi := (w + i) % len(queries)
				res, err := e.Query(queries[qi])
				if err != nil {
					errCh <- fmt.Errorf("%q: %w", queries[qi], err)
					return
				}
				if got := res.String(); got != want[qi] {
					errCh <- fmt.Errorf("%q: concurrent result differs", queries[qi])
					return
				}
			}
		}(w)
	}
	// Engine-state writers running alongside the queries. Re-installing
	// the same poll times keeps the concurrent answers comparable.
	times := append([]timestamp.Time(nil), e.newEvaluation(nil).pollTimes...)
	wg.Add(1)
	go func() {
		defer wg.Done()
		extra, _ := guidegen.PaperGuide()
		for i := 0; i < 20; i++ {
			e.SetPollTimes(times)
			e.Register(fmt.Sprintf("scratch%d", i%3), NewOEMGraph(extra))
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
