package lore_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/chorel"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lore"
	"repro/internal/lorel"
	"repro/internal/segment"
	"repro/internal/timestamp"
)

// persistentStores are the seal policies the concurrency gates run over:
// seals on explicit Checkpoint calls only, and policy seals that swap the
// active segment under concurrent ViewIndexed readers.
var persistentStores = []struct {
	name string
	open func(dir string) (*lore.Store, error)
}{
	{"segmented-autoseal", func(dir string) (*lore.Store, error) {
		return lore.OpenSegmented(dir, nil, &segment.Policy{SealAnnotations: 50})
	}},
	{"segmented", func(dir string) (*lore.Store, error) { return lore.OpenSegmented(dir, nil, nil) }},
}

// forEachStore runs fn as a subtest over each seal policy.
func forEachStore(t *testing.T, fn func(t *testing.T, open func(dir string) (*lore.Store, error))) {
	for _, k := range persistentStores {
		t.Run(k.name, func(t *testing.T) { fn(t, k.open) })
	}
}

// TestConcurrentQueriesWithApplySet drives N goroutines of concurrent
// Chorel queries through Store.ViewIndexed while another goroutine feeds
// the remaining history steps through log-backed ApplySet — the claim that
// one store serves readers and a writer at once. Run under -race this is
// the stress gate for the graph layer's read-path contract, over both seal
// policies. Once the writer is done, every query must answer over the
// store's whole history — through ViewIndexed and over GetDOEM's copy —
// as it does over the monolithic database of the same history.
func TestConcurrentQueriesWithApplySet(t *testing.T) {
	forEachStore(t, testConcurrentQueriesWithApplySet)
}

func testConcurrentQueriesWithApplySet(t *testing.T, open func(dir string) (*lore.Store, error)) {
	initial, h := guidegen.GenerateHistory(11, 30, 12, 5)
	if len(h) < 4 {
		t.Fatalf("history too short: %d steps", len(h))
	}
	// Seed the store with the first few steps applied; the writer streams
	// in the rest while readers query.
	seedSteps, liveSteps := h[:2], h[2:]
	d, err := doem.FromHistory(initial, seedSteps)
	if err != nil {
		t.Fatal(err)
	}
	s, err := open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.PutDOEM("guide", d); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`select R.name from guide.restaurant R where R.price < 30`,
		`select C from guide.restaurant.<add at T>comment C where T > 1Jan97`,
		`select R, T from guide.restaurant<cre at T> R`,
		`select guide.#`,
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 32)

	// Writer: stream the remaining history into the store.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, step := range liveSteps {
			if err := s.ApplySet("guide", step.At, step.Ops); err != nil {
				errCh <- fmt.Errorf("ApplySet at %s: %w", step.At, err)
				return
			}
		}
	}()

	// query runs q over the store's whole history through the coordinated
	// view.
	query := func(q string) (*lorel.Result, error) {
		var res *lorel.Result
		err := s.ViewIndexed("guide", func(g lorel.Graph) error {
			eng := lorel.NewEngine()
			eng.Register("guide", g)
			var qerr error
			res, qerr = eng.Query(q)
			return qerr
		})
		return res, err
	}

	// Readers: concurrent Chorel queries through the coordinated view.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				q := queries[(w+i)%len(queries)]
				_, err := query(q)
				if err != nil {
					errCh <- fmt.Errorf("worker %d query %q: %w", w, q, err)
					return
				}
			}
		}(w)
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The store must have absorbed every step despite the read load, and
	// answer every query over all of it.
	if last := lastInstant(t, s); !last.Equal(h[len(h)-1].At) {
		t.Fatalf("store last step %s, want %s", last, h[len(h)-1].At)
	}
	want, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := s.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		wantRes, err := chorel.New("guide", want).Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != wantRes.String() {
			t.Errorf("ViewIndexed answers %q with\n%s\nwant\n%s", q, got, wantRes)
		}
		if got, err = chorel.New("guide", whole).Query(q); err != nil {
			t.Fatal(err)
		} else if got.String() != wantRes.String() {
			t.Errorf("GetDOEM's copy answers %q with\n%s\nwant\n%s", q, got, wantRes)
		}
	}
}

// TestConcurrentApplySetCheckpoint is the race-stress gate for sealing
// beside appends: one goroutine streams change sets through ApplySet while
// another repeatedly checkpoints (seals) the same database. The store-wide
// lock must keep each seal atomic with respect to appends — under -race,
// and verified by reopening the store and comparing against the full
// history, over both seal policies.
func TestConcurrentApplySetCheckpoint(t *testing.T) {
	forEachStore(t, testConcurrentApplySetCheckpoint)
}

func testConcurrentApplySetCheckpoint(t *testing.T, open func(dir string) (*lore.Store, error)) {
	initial, h := guidegen.GenerateHistory(17, 20, 15, 5)
	dir := t.TempDir()
	s, err := open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutDOEM("guide", doem.New(initial.Clone())); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for _, step := range h {
			if err := s.ApplySet("guide", step.At, step.Ops); err != nil {
				errCh <- fmt.Errorf("ApplySet at %s: %w", step.At, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := s.Checkpoint("guide"); err != nil {
				errCh <- fmt.Errorf("Checkpoint: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Whatever interleaving happened, replaying the persisted state must
	// yield exactly the full history's final database.
	want, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Current().Equal(want.Current()) {
		t.Error("persisted state diverged from the applied history")
	}
	if last := lastInstant(t, s2); !last.Equal(h[len(h)-1].At) {
		t.Errorf("last step %s, want %s", last, h[len(h)-1].At)
	}
}

// lastInstant returns the newest recorded instant of the store's guide.
func lastInstant(t *testing.T, s *lore.Store) timestamp.Time {
	t.Helper()
	d, err := s.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	return d.LastStep()
}
