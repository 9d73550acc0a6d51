package segment

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wal"
)

// buildPair applies one synthetic history to a monolithic DOEM database
// and a segmented store side by side, sealing the store after the step
// indexes sealAfter selects. The pair is the oracle for every parity
// check: any observable difference between them is a bug.
func buildPair(t testing.TB, dir string, seed int64, sealAfter func(i int) bool, pol *Policy) (*doem.Database, *Store) {
	t.Helper()
	initial, h := guidegen.GenerateHistory(seed, 10, 20, 5)
	mono := doem.New(initial.Clone())
	st, err := Create(dir, doem.New(initial), nil, pol)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	for i, step := range h {
		if err := mono.Apply(step.At, step.Ops); err != nil {
			t.Fatalf("monolithic apply step %d: %v", i, err)
		}
		if err := st.Apply(step.At, step.Ops); err != nil {
			t.Fatalf("segmented apply step %d: %v", i, err)
		}
		if sealAfter != nil && sealAfter(i) {
			if err := st.Seal(); err != nil {
				t.Fatalf("seal after step %d: %v", i, err)
			}
		}
	}
	return mono, st
}

// candidateTimes collects instants that exercise every interesting case:
// each recorded step time exactly (the inclusive boundary — and therefore
// every seal boundary), one second on either side, and instants before the
// first and after the last change.
func candidateTimes(d *doem.Database) []timestamp.Time {
	steps := d.Steps()
	var ts []timestamp.Time
	for _, s := range steps {
		ts = append(ts, s, s.Add(-1e9), s.Add(1e9))
	}
	if len(steps) > 0 {
		ts = append(ts, steps[0].Add(-86400e9), steps[len(steps)-1].Add(86400e9))
	} else {
		ts = append(ts, timestamp.MustParse("1Jan97"))
	}
	return ts
}

// checkGraphParity compares every Graph accessor of the segmented view
// against the monolithic database, across all nodes, arcs, and candidate
// instants.
func checkGraphParity(t testing.TB, mono *doem.Database, st *Store) {
	t.Helper()
	g := st.Graph()
	if g.Root() != mono.Root() {
		t.Fatalf("Root: segmented %s, monolithic %s", g.Root(), mono.Root())
	}
	times := candidateTimes(mono)
	for _, n := range mono.AllNodeIDs() {
		mv, mok := mono.Value(n)
		gv, gok := g.Value(n)
		if mok != gok || (mok && !mv.Equal(gv)) {
			t.Fatalf("Value(%s): segmented (%v,%v), monolithic (%v,%v)", n, gv, gok, mv, mok)
		}
		if got, want := fmt.Sprint(g.Out(n)), fmt.Sprint(mono.Out(n)); got != want {
			t.Fatalf("Out(%s): segmented %s, monolithic %s", n, got, want)
		}
		if got, want := fmt.Sprint(g.OutAll(n)), fmt.Sprint(mono.OutAll(n)); got != want {
			t.Fatalf("OutAll(%s): segmented %s, monolithic %s", n, got, want)
		}
		mt, mcok := mono.CreTime(n)
		gt, gcok := g.CreTime(n)
		if mcok != gcok || (mcok && !mt.Equal(gt)) {
			t.Fatalf("CreTime(%s): segmented (%s,%v), monolithic (%s,%v)", n, gt, gcok, mt, mcok)
		}
		if got, want := fmt.Sprint(g.UpdTriples(n)), fmt.Sprint(mono.UpdTriples(n)); got != want {
			t.Fatalf("UpdTriples(%s): segmented %s, monolithic %s", n, got, want)
		}
		for _, at := range times {
			if got, want := g.ValueAt(n, at), mono.ValueAt(n, at); !got.Equal(want) {
				t.Fatalf("ValueAt(%s, %s): segmented %v, monolithic %v", n, at, got, want)
			}
			var want []oem.Arc
			for _, a := range mono.OutAll(n) {
				if mono.ArcLiveAt(a, at) {
					want = append(want, a)
				}
			}
			if got := g.OutAt(n, at); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("OutAt(%s, %s): segmented %v, monolithic %v", n, at, got, want)
			}
		}
		for _, a := range mono.OutAll(n) {
			if got, want := fmt.Sprint(g.ArcAnnots(a)), fmt.Sprint(mono.ArcAnnots(a)); got != want {
				t.Fatalf("ArcAnnots(%s): segmented %s, monolithic %s", a, got, want)
			}
			for _, at := range times {
				if got, want := g.ArcLiveAt(a, at), mono.ArcLiveAt(a, at); got != want {
					t.Fatalf("ArcLiveAt(%s, %s): segmented %v, monolithic %v", a, at, got, want)
				}
			}
		}
	}
	// An arc the history never recorded: both sides report it vacuously
	// live, matching the monolithic convention.
	ghost := oem.Arc{Parent: 1 << 40, Label: "ghost", Child: 1<<40 + 1}
	if !g.ArcLiveAt(ghost, times[0]) || !mono.ArcLiveAt(ghost, times[0]) {
		t.Fatal("unknown arc is not vacuously live")
	}
}

func TestStoreSealReopenParity(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		dir := t.TempDir()
		mono, st := buildPair(t, dir, seed, func(i int) bool { return i%7 == 6 }, nil)
		if st.Segments() == 0 {
			t.Fatal("no segments sealed")
		}
		checkGraphParity(t, mono, st)
		if err := st.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		st2, err := Open(dir, nil, nil)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		checkGraphParity(t, mono, st2)
		// Restart replay is bounded by the active segment, not total history.
		want := 0
		for _, at := range mono.Steps() {
			if at.After(st2.LastSeal()) {
				want++
			}
		}
		if st2.Stats().Records != want {
			t.Errorf("seed %d: reopen replayed %d records, want %d (steps after last seal)",
				seed, st2.Stats().Records, want)
		}
		if st2.MaxID() != mono.MaxID() {
			t.Errorf("seed %d: MaxID %d, monolithic %d", seed, st2.MaxID(), mono.MaxID())
		}
		st2.Close()
	}
}

func TestStoreSealEveryStep(t *testing.T) {
	// The densest partitioning: one segment per step, empty active segment.
	dir := t.TempDir()
	mono, st := buildPair(t, dir, 4, func(int) bool { return true }, nil)
	defer st.Close()
	if st.Segments() < 15 {
		t.Fatalf("expected ~20 segments, got %d", st.Segments())
	}
	checkGraphParity(t, mono, st)
}

func TestStoreNoSealParity(t *testing.T) {
	// Degenerate case: never sealed, the store is a WAL-backed monolith.
	dir := t.TempDir()
	mono, st := buildPair(t, dir, 5, nil, nil)
	checkGraphParity(t, mono, st)
	st.Close()
	st2, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer st2.Close()
	checkGraphParity(t, mono, st2)
}

func TestAutoSealByAnnotationCount(t *testing.T) {
	dir := t.TempDir()
	mono, st := buildPair(t, dir, 6, nil, &Policy{SealAnnotations: 12})
	defer st.Close()
	if st.Segments() < 2 {
		t.Fatalf("count policy sealed %d segments, want >= 2", st.Segments())
	}
	checkGraphParity(t, mono, st)
}

func TestAutoSealByAge(t *testing.T) {
	dir := t.TempDir()
	// Steps advance one day of history time each; a 3-day window seals
	// every few steps regardless of wall-clock time.
	mono, st := buildPair(t, dir, 7, nil, &Policy{SealAge: 3 * 24 * time.Hour})
	defer st.Close()
	if st.Segments() < 3 {
		t.Fatalf("age policy sealed %d segments, want >= 3", st.Segments())
	}
	checkGraphParity(t, mono, st)
}

// TestRefusedAppendLeavesActiveAtLog: a change set the tail log refuses
// must not reach the active segment, since a reopen could not replay it.
// The tail stays closed afterwards, so later sets fail rather than append
// past a record that may or may not be on disk, and reopening the store
// recovers exactly the durable prefix.
func TestRefusedAppendLeavesActiveAtLog(t *testing.T) {
	dir := t.TempDir()
	initial, h := guidegen.GenerateHistory(14, 10, 5, 5)
	st, err := Create(dir, doem.New(initial), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range h[:3] {
		if err := st.Apply(step.At, step.Ops); err != nil {
			t.Fatal(err)
		}
	}
	durable, err := doem.FromHistory(initial, h[:3])
	if err != nil {
		t.Fatal(err)
	}

	st.tail.Close()
	if err := st.Apply(h[3].At, h[3].Ops); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("apply over a closed tail: err = %v, want wal.ErrClosed", err)
	}
	if !st.Active().Equal(durable) || st.MaxID() != durable.MaxID() {
		t.Fatalf("refused append moved the active segment: %d steps, want %d",
			len(st.Active().Steps()), len(durable.Steps()))
	}
	if err := st.Apply(h[4].At, h[4].Ops); err == nil {
		t.Fatal("apply after a refused append succeeded; the tail must stay closed")
	}
	st.Close()

	st2, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !st2.Active().Equal(durable) {
		t.Fatal("reopened store differs from the durable prefix")
	}
}

func TestTruncate(t *testing.T) {
	dir := t.TempDir()
	mono, st := buildPair(t, dir, 10, func(i int) bool { return i == 7 }, nil)
	defer st.Close()

	// Inside sealed history: refused — sealed segments are immutable.
	early := st.LastSeal().Add(-time.Second)
	if err := st.Truncate(early); err == nil {
		t.Fatal("truncating inside sealed history did not fail")
	}

	// At a mid-active instant: equivalent to the monolithic truncation.
	steps := mono.Steps()
	var at timestamp.Time
	for _, s := range steps {
		if s.After(st.LastSeal()) {
			at = s
		}
	}
	at = at.Add(-1e9) // strictly between two active steps
	maxBefore := st.MaxID()
	monoTd, err := mono.Truncate(at)
	if err != nil {
		t.Fatalf("monolithic truncate: %v", err)
	}
	if err := st.Truncate(at); err != nil {
		t.Fatalf("segmented truncate: %v", err)
	}
	if st.Segments() != 0 {
		t.Fatalf("truncate left %d sealed segments", st.Segments())
	}
	checkGraphParity(t, monoTd, st)
	if st.MaxID() < maxBefore {
		t.Fatalf("truncate regressed MaxID from %d to %d (id reuse hazard)", maxBefore, st.MaxID())
	}
	// The truncation must persist across a restart.
	st.Close()
	st2, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatalf("reopen after truncate: %v", err)
	}
	defer st2.Close()
	checkGraphParity(t, monoTd, st2)
	if st2.MaxID() < maxBefore {
		t.Fatalf("reopen lost the MaxID high-water mark: %d < %d", st2.MaxID(), maxBefore)
	}
}

func TestApplyBeforeSealBoundaryRejected(t *testing.T) {
	dir := t.TempDir()
	_, st := buildPair(t, dir, 11, func(i int) bool { return i == 19 }, nil)
	defer st.Close()
	boundary := st.LastSeal()
	set := change.Set{change.UpdNode{Node: st.active.Root(), Value: value.Str("late")}}
	if err := st.Apply(boundary, set); err == nil {
		t.Fatal("applying at the seal boundary did not fail")
	}
	if err := st.Apply(boundary.Add(-time.Hour), set); err == nil {
		t.Fatal("applying before the seal boundary did not fail")
	}
}

func TestStateAt(t *testing.T) {
	dir := t.TempDir()
	mono, st := buildPair(t, dir, 12, func(i int) bool { return i%5 == 4 }, nil)
	defer st.Close()
	for _, at := range candidateTimes(mono) {
		got, err := st.StateAt(at)
		if err != nil {
			t.Fatalf("StateAt(%s): %v", at, err)
		}
		if want := mono.SnapshotAt(at); !got.Equal(want) {
			t.Fatalf("StateAt(%s) differs from monolithic snapshot:\nsegmented:\n%s\nmonolithic:\n%s",
				at, got, want)
		}
	}
}

func TestCreateRefusesExistingStore(t *testing.T) {
	dir := t.TempDir()
	_, st := buildPair(t, dir, 13, nil, nil)
	st.Close()
	if _, err := Create(dir, doem.New(oem.New()), nil, nil); err == nil {
		t.Fatal("Create over an existing store did not fail")
	}
}

// TestOpenRefusesJSONTailCheckpoint: a tail checkpoint in JSON, the
// layout of earlier versions, is no longer read. Open fails with an error
// naming the tail log and moves, quarantines or rewrites nothing.
func TestOpenRefusesJSONTailCheckpoint(t *testing.T) {
	dir := t.TempDir()
	_, st := buildPair(t, dir, 13, func(i int) bool { return i == 5 }, nil)
	st.Close()
	tail := filepath.Join(dir, tailDirName)
	l, err := wal.Open(tail, nil)
	if err != nil {
		t.Fatal(err)
	}
	legacy := []byte(`{"current":{"root":1,"nodes":[{"id":1,"kind":"complex"}],"arcs":[]}}`)
	if err := l.Checkpoint(legacy, l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	list := func() map[string]string {
		files := make(map[string]string)
		for _, d := range []string{dir, tail} {
			entries, err := os.ReadDir(d)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if !e.IsDir() {
					data, err := os.ReadFile(filepath.Join(d, e.Name()))
					if err != nil {
						t.Fatal(err)
					}
					files[filepath.Join(d, e.Name())] = string(data)
				}
			}
		}
		return files
	}
	before := list()
	st, err = Open(dir, nil, nil)
	if err == nil {
		st.Close()
		t.Fatal("Open read a JSON tail checkpoint")
	}
	if !strings.Contains(err.Error(), tail) || !strings.Contains(err.Error(), "older version") {
		t.Errorf("error %q does not name %s as an older layout", err, tail)
	}
	if after := list(); !reflect.DeepEqual(after, before) {
		t.Error("the refused open changed the store's files")
	}
}

// TestReplayEqualsMonolithic: replaying the sealed segments and the active
// one rebuilds exactly the database that applied every step itself, with
// and without seals, and after a reopen.
func TestReplayEqualsMonolithic(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		dir := t.TempDir()
		mono, st := buildPair(t, dir, seed, func(i int) bool { return i%(2+int(seed)) == 1 }, nil)
		for _, reopen := range []bool{false, true} {
			if reopen {
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
				var err error
				if st, err = Open(dir, nil, nil); err != nil {
					t.Fatal(err)
				}
			}
			if st.Segments() == 0 {
				t.Fatalf("seed %d: nothing sealed", seed)
			}
			got, err := st.Replay()
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !got.Equal(mono) {
				t.Fatalf("seed %d reopen=%v: replayed database differs from the monolithic one", seed, reopen)
			}
		}
		st.Close()
	}
}
