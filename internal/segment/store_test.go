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
	"repro/internal/lorel"
	"repro/internal/obs"
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

// candidateWindows returns the closed windows the windowed reads are
// checked over: everything, nothing, and from, up to and exactly at each
// candidate instant.
func candidateWindows(times []timestamp.Time) [][2]timestamp.Time {
	ws := [][2]timestamp.Time{{timestamp.NegInf, timestamp.PosInf}, {timestamp.PosInf, timestamp.NegInf}}
	for _, t := range times {
		ws = append(ws, [2]timestamp.Time{t, timestamp.PosInf}, [2]timestamp.Time{timestamp.NegInf, t}, [2]timestamp.Time{t, t})
	}
	return ws
}

func inWindow(t timestamp.Time, w [2]timestamp.Time) bool { return !t.Before(w[0]) && !t.After(w[1]) }

// filterUpds and filterArcAnnots are the windowed reads' oracle: the whole
// chain, filtered.
func filterUpds(chain []doem.UpdInfo, w [2]timestamp.Time) []doem.UpdInfo {
	var out []doem.UpdInfo
	for _, u := range chain {
		if inWindow(u.At, w) {
			out = append(out, u)
		}
	}
	return out
}

func filterArcAnnots(chain []doem.ArcAnnot, w [2]timestamp.Time) []doem.ArcAnnot {
	var out []doem.ArcAnnot
	for _, a := range chain {
		if inWindow(a.At, w) {
			out = append(out, a)
		}
	}
	return out
}

// liveOut is what a step through <at t> reads of n: OutAll(n) filtered by
// ArcLiveAt, in insertion order.
func liveOut(g lorel.Graph, n oem.NodeID, t timestamp.Time) []oem.Arc {
	var arcs []oem.Arc
	for _, a := range g.OutAll(n) {
		if g.ArcLiveAt(a, t) {
			arcs = append(arcs, a)
		}
	}
	return arcs
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
	windows := candidateWindows(times)
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
		for _, w := range windows {
			want := filterUpds(mono.UpdTriples(n), w)
			if got := mono.UpdTriplesIn(n, w[0], w[1]); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("monolithic UpdTriplesIn(%s, %s, %s) = %s, filtered chain %s", n, w[0], w[1], got, want)
			}
			if got := g.UpdTriplesIn(n, w[0], w[1]); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("UpdTriplesIn(%s, %s, %s): segmented %s, monolithic %s", n, w[0], w[1], got, want)
			}
			if len(want) > 0 && !want[len(want)-1].New.Equal(mono.ValueAt(n, w[1])) {
				t.Fatalf("UpdTriplesIn(%s, %s, %s): last new value %v, value at the window's end %v", n, w[0], w[1], want[len(want)-1].New, mono.ValueAt(n, w[1]))
			}
		}
		for _, at := range times {
			if got, want := g.ValueAt(n, at), mono.ValueAt(n, at); !got.Equal(want) {
				t.Fatalf("ValueAt(%s, %s): segmented %v, monolithic %v", n, at, got, want)
			}
			if got, want := liveOut(g, n, at), liveOut(mono, n, at); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("arcs of %s live at %s: segmented %v, monolithic %v", n, at, got, want)
			}
		}
		for _, a := range mono.OutAll(n) {
			for _, w := range windows {
				want := filterArcAnnots(mono.ArcAnnots(a), w)
				if got := mono.ArcAnnotsIn(a, w[0], w[1]); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("monolithic ArcAnnotsIn(%s, %s, %s) = %s, filtered chain %s", a, w[0], w[1], got, want)
				}
				if got := g.ArcAnnotsIn(a, w[0], w[1]); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("ArcAnnotsIn(%s, %s, %s): segmented %s, monolithic %s", a, w[0], w[1], got, want)
				}
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
	if !st.active.Equal(durable) || st.MaxID() != durable.MaxID() {
		t.Fatalf("refused append moved the active segment: %d steps, want %d",
			len(st.active.Steps()), len(durable.Steps()))
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
	if !st2.active.Equal(durable) {
		t.Fatal("reopened store differs from the durable prefix")
	}
}

// TestSealCheckpointFailureFailsStop: a seal whose commit checkpoint
// fails leaves memory at the last committed state, and a reopen removes
// the seal's files and recovers the history unsealed.
func TestSealCheckpointFailureFailsStop(t *testing.T) {
	dir := t.TempDir()
	mono, st := buildPair(t, dir, 17, nil, nil)
	st.tail.Close()
	if err := st.Seal(); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("seal over a closed tail: err = %v, want wal.ErrClosed", err)
	}
	if st.Segments() != 0 || !st.LastSeal().Equal(timestamp.NegInf) {
		t.Fatalf("a failed seal moved memory: %d segments, last seal %s", st.Segments(), st.LastSeal())
	}
	checkGraphParity(t, mono, st)
	st.Close()

	st, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if left := segmentFiles(t, dir); st.Segments() != 0 || len(left) != 0 {
		t.Fatalf("reopen: %d segments, files %v; want none", st.Segments(), left)
	}
	checkGraphParity(t, mono, st)
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

// treeFiles returns the contents of every file under dir, by path.
func treeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		files[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestOpenRefusesMissingCommittedSegment: a segment the tail checkpoint
// counts is part of the committed history, so its loss is ErrCorrupt
// naming the file. The refused open removes nothing, not even the
// leftovers it would otherwise sweep.
func TestOpenRefusesMissingCommittedSegment(t *testing.T) {
	dir := t.TempDir()
	_, st := buildPair(t, dir, 12, func(i int) bool { return i%6 == 5 }, nil)
	if st.Segments() < 2 {
		t.Fatalf("%d segments sealed, want at least 2", st.Segments())
	}
	st.Close()
	missing := filepath.Join(dir, segFileName(2))
	if err := os.Remove(missing); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{segFileName(9), segFileName(1) + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := treeFiles(t, dir)
	st, err := Open(dir, nil, nil)
	if err == nil {
		st.Close()
		t.Fatal("Open succeeded without a committed segment")
	}
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), missing) {
		t.Errorf("error %q is not ErrCorrupt naming %s", err, missing)
	}
	if after := treeFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Error("the refused open changed the store's files")
	}
}

// TestOpenRefusesStateLayout: earlier versions kept the sealed summary in
// a STATE file and checkpointed the tail as a bare DOEM pair. Open refuses
// such a directory by naming STATE, and changes nothing; with the STATE
// file gone, the bare-pair checkpoint is refused in turn.
func TestOpenRefusesStateLayout(t *testing.T) {
	dir := t.TempDir()
	_, st := buildPair(t, dir, 13, func(i int) bool { return i == 5 }, nil)
	pair, err := doem.Append(nil, st.active)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	tail := filepath.Join(dir, tailDirName)
	l, err := wal.Open(tail, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(pair, l.LastSeq()); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(dir, "STATE")
	if err := os.WriteFile(state, []byte("DSTA1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{segFileName(7), idxFileName(1) + ".tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("leftover"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []string{state, tail} {
		before := treeFiles(t, dir)
		st, err := Open(dir, nil, nil)
		if err == nil {
			st.Close()
			t.Fatalf("Open read a store whose %s is in an older layout", want)
		}
		if !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "older version") {
			t.Errorf("error %q does not name %s as an older layout", err, want)
		}
		if after := treeFiles(t, dir); !reflect.DeepEqual(after, before) {
			t.Error("the refused open changed the store's files")
		}
		os.Remove(state)
	}
}

// TestLazyLoadChecksBounds: a segment's files are read only when a query
// or Replay needs them, and are checked then against the id and bounds the
// checkpoint counts. An index file of another segment is rebuilt from
// ground truth and the answers stay right; a segment file of another
// segment is ErrCorrupt.
func TestLazyLoadChecksBounds(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	dir := t.TempDir()
	mono, st := buildPair(t, dir, 14, func(i int) bool { return i%6 == 5 }, nil)
	st.Close()
	swap := func(a, b string) {
		pa, pb := filepath.Join(dir, a), filepath.Join(dir, b)
		tmp := pa + ".swap"
		for _, mv := range [][2]string{{pa, tmp}, {pb, pa}, {tmp, pb}} {
			if err := os.Rename(mv[0], mv[1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	swap(idxFileName(1), idxFileName(2))
	rebuilds := mIdxRebuilds.Value()
	st, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGraphParity(t, mono, st)
	if n := mIdxRebuilds.Value() - rebuilds; n != 2 {
		t.Errorf("%d index rebuilds, want 2 (both swapped index files)", n)
	}
	st.Close()

	// An index whose checksum holds but whose keys are out of order or
	// repeated is corrupt too: it is rebuilt from its segment, and the
	// answers do not change.
	rewrite := func(id int, mutate func(x *segIndex)) {
		path := filepath.Join(dir, idxFileName(id))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		_, from, to, x, err := decodeSegIndex(data)
		if err != nil {
			t.Fatal(err)
		}
		mutate(x)
		if err := os.WriteFile(path, encodeSegIndex(id, from, to, x), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(1, func(x *segIndex) { x.live[0], x.live[1] = x.live[1], x.live[0] })
	rewrite(2, func(x *segIndex) { x.upd.keys[1] = x.upd.keys[0] })
	rewrite(3, func(x *segIndex) { x.arcs.keys[0], x.arcs.keys[1] = x.arcs.keys[1], x.arcs.keys[0] })
	rebuilds = mIdxRebuilds.Value()
	if st, err = Open(dir, nil, nil); err != nil {
		t.Fatal(err)
	}
	checkGraphParity(t, mono, st)
	if n := mIdxRebuilds.Value() - rebuilds; n != 3 {
		t.Errorf("%d index rebuilds, want 3 (the index files with keys out of order)", n)
	}
	st.Close()

	swap(segFileName(1), segFileName(2))
	if st, err = Open(dir, nil, nil); err != nil {
		t.Fatalf("Open read a segment file: %v", err)
	}
	defer st.Close()
	if _, err := st.Replay(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay over swapped segment files: err = %v, want ErrCorrupt", err)
	}
}

// TestIndexWriteFailureCounted: a rebuilt index whose file cannot be
// written is still served, and the failure is counted. A directory in the
// index file's place makes the rename fail whatever the permissions.
func TestIndexWriteFailureCounted(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	dir := t.TempDir()
	mono, st := buildPair(t, dir, 15, func(i int) bool { return i == 9 }, nil)
	st.Close()
	idx := filepath.Join(dir, idxFileName(1))
	if err := os.Remove(idx); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(idx, 0o755); err != nil {
		t.Fatal(err)
	}
	failures := mIdxWriteFailures.Value()
	st, err := Open(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	checkGraphParity(t, mono, st)
	if n := mIdxWriteFailures.Value() - failures; n != 1 {
		t.Errorf("segment_index_write_failures_total moved by %d, want 1", n)
	}
}

// TestLastStep: the newest step of the whole history, whether it is
// sealed or active, and NegInf for a store without steps.
func TestLastStep(t *testing.T) {
	st, err := Create(t.TempDir(), doem.New(oem.New()), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !st.LastStep().Equal(timestamp.NegInf) {
		t.Errorf("empty store: LastStep %s, want -inf", st.LastStep())
	}
	st.Close()
	mono, st := buildPair(t, t.TempDir(), 16, func(i int) bool { return i == 19 }, nil)
	defer st.Close()
	if !st.LastStep().Equal(mono.LastStep()) || st.Segments() != 1 {
		t.Fatalf("all sealed: LastStep %s, want %s", st.LastStep(), mono.LastStep())
	}
	next := mono.LastStep().Add(time.Hour)
	id := st.MaxID() + 1
	set := change.Set{
		change.CreNode{Node: id, Value: value.Str("x")},
		change.AddArc{Parent: st.active.Root(), Label: "x", Child: id},
	}
	if err := st.Apply(next, set); err != nil {
		t.Fatal(err)
	}
	if !st.LastStep().Equal(next) {
		t.Errorf("active step: LastStep %s, want %s", st.LastStep(), next)
	}
}
