package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// The log stores opaque payloads. These tests give it the ones
// internal/segment does: one history step per record (change.AppendStep)
// and a stored DOEM as the checkpoint (doem.Append).

func appendStep(l *Log, s change.Step) (uint64, error) {
	return l.Append(change.AppendStep(nil, s))
}

// replayHistory decodes the steps recorded after the checkpoint.
func replayHistory(l *Log) (change.History, error) {
	var h change.History
	err := l.Replay(func(seq uint64, payload []byte) error {
		step, n, err := change.DecodeStep(payload)
		if err == nil && n != len(payload) {
			err = fmt.Errorf("%d trailing bytes", len(payload)-n)
		}
		if err != nil {
			return fmt.Errorf("record %d: %w", seq, err)
		}
		h = append(h, step)
		return nil
	})
	return h, err
}

// checkpointDOEM checkpoints d as covering every record appended so far.
func checkpointDOEM(l *Log, d *doem.Database) error {
	payload, err := doem.Append(nil, d)
	if err != nil {
		return err
	}
	return l.Checkpoint(payload, l.LastSeq())
}

// replayDOEM is D(O, H) off the log: the checkpointed database (an empty
// one without a checkpoint) with every later step applied.
func replayDOEM(l *Log) (*doem.Database, error) {
	d := doem.New(oem.New())
	if payload, _, ok := l.LastCheckpoint(); ok {
		var err error
		if d, _, err = doem.Decode(payload); err != nil {
			return nil, err
		}
	}
	h, err := replayHistory(l)
	if err != nil {
		return nil, err
	}
	for _, step := range h {
		if err := d.Apply(step.At, step.Ops); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// testStep builds the i-th step of a simple deterministic history: each
// step creates one restaurant object with a name and links it to the root.
func testStep(i int) change.Step {
	base := oem.NodeID(1 + 2*i)
	return change.Step{
		At: timestamp.FromUnix(int64(1000 + i)),
		Ops: change.Set{
			change.CreNode{Node: base + 1, Value: value.Complex()},
			change.CreNode{Node: base + 2, Value: value.Str("Restaurant")},
			change.AddArc{Parent: 1, Label: "restaurant", Child: base + 1},
			change.AddArc{Parent: base + 1, Label: "name", Child: base + 2},
		},
	}
}

func appendSteps(t *testing.T, l *Log, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		s := testStep(i)
		if _, err := appendStep(l, s); err != nil {
			t.Fatalf("append step %d: %v", i, err)
		}
	}
}

func wantSteps(t *testing.T, l *Log, n int) {
	t.Helper()
	h, err := replayHistory(l)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(h) != n {
		t.Fatalf("replayed %d steps, want %d", len(h), n)
	}
	for i, s := range h {
		want := testStep(i)
		if !s.At.Equal(want.At) || !reflect.DeepEqual(s.Ops, want.Ops) {
			t.Fatalf("step %d differs after replay", i)
		}
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir(), &Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendSteps(t, l, 0, 10)
	wantSteps(t, l, 10)
	if got := l.LastSeq(); got != 10 {
		t.Errorf("LastSeq = %d, want 10", got)
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	appendSteps(t, l, 0, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if got := l.LastSeq(); got != 5 {
		t.Fatalf("LastSeq after reopen = %d, want 5", got)
	}
	appendSteps(t, l, 5, 9)
	wantSteps(t, l, 9)
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, &Options{SegmentSize: 128, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendSteps(t, l, 0, 20)
	paths, _, err := l.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("got %d segments, want rotation to produce several", len(paths))
	}
	wantSteps(t, l, 20)
}

func TestCheckpointCompactsSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, &Options{SegmentSize: 128, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendSteps(t, l, 0, 20)
	d, err := replayDOEM(l)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpointDOEM(l, d); err != nil {
		t.Fatal(err)
	}
	paths, _, err := l.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 0 {
		t.Errorf("%d segments survive a full checkpoint, want 0", len(paths))
	}
	// The replayed state must be unchanged, now served from the checkpoint.
	d2, err := replayDOEM(l)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(d2) {
		t.Error("DOEM differs after checkpoint compaction")
	}
	// New appends and a reopen extend the checkpointed state.
	appendSteps(t, l, 20, 25)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, &Options{SegmentSize: 128, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d3, err := replayDOEM(l)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d3.Steps()); got != 25 {
		t.Errorf("replayed DOEM has %d steps, want 25", got)
	}
}

func TestCheckpointBounds(t *testing.T) {
	l, err := Open(t.TempDir(), &Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendSteps(t, l, 0, 3)
	if err := l.Checkpoint(nil, 7); err == nil {
		t.Error("checkpoint beyond last record succeeded")
	}
	if err := l.Checkpoint(nil, 3); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(nil, 2); err == nil {
		t.Error("checkpoint behind existing checkpoint succeeded")
	}
}

func TestClosedLogErrors(t *testing.T) {
	l, err := Open(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	if _, err := l.Append(nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Append on closed log: %v", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync on closed log: %v", err)
	}
	if err := l.Replay(func(uint64, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("Replay on closed log: %v", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncNever} {
		l, err := Open(t.TempDir(), &Options{Sync: pol})
		if err != nil {
			t.Fatal(err)
		}
		appendSteps(t, l, 0, 5)
		wantSteps(t, l, 5)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMissingMiddleSegmentDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, &Options{SegmentSize: 128, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendSteps(t, l, 0, 20)
	paths, _, err := l.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(paths))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(paths[1]); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, &Options{SegmentSize: 128, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	h, err := replayHistory(l)
	if err != nil {
		t.Fatal(err)
	}
	// Only the records of the first segment survive; they form a prefix.
	if len(h) == 0 || len(h) >= 20 {
		t.Fatalf("recovered %d steps after losing a middle segment", len(h))
	}
	for i, s := range h {
		want := testStep(i)
		if !s.At.Equal(want.At) || !reflect.DeepEqual(s.Ops, want.Ops) {
			t.Fatalf("step %d not a prefix step", i)
		}
	}
}

func TestCheckpointBaseSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	// A non-empty base database checkpointed before any records.
	base := oem.New()
	n := base.CreateNode(value.Str("Chef Chu's"))
	if err := base.AddArc(base.Root(), "restaurant", n); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpointDOEM(l, doem.New(base)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d, err := replayDOEM(l)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Current().Equal(base) {
		t.Error("checkpointed base lost across reopen")
	}
}

func TestCorruptCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpointDOEM(l, doem.New(oem.New())); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpointName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil); err == nil {
		t.Fatal("Open accepted a corrupt checkpoint")
	}
}
