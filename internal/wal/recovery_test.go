package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
)

// copyDir clones a flat directory (the shape of a log directory).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// truncateLogAt simulates a crash that tears the log's record stream at an
// arbitrary byte offset: bytes before offset (counted across segments in
// order) survive, everything after is lost.
func truncateLogAt(t *testing.T, l *Log, offset int64) {
	t.Helper()
	paths, _, err := l.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	remaining := offset
	for _, path := range paths {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case remaining >= st.Size():
			remaining -= st.Size()
		case remaining > 0:
			if err := os.Truncate(path, remaining); err != nil {
				t.Fatal(err)
			}
			remaining = 0
		default:
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func logBytes(t *testing.T, l *Log) int64 {
	t.Helper()
	paths, _, err := l.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	return total
}

// TestCrashRecoveryYieldsValidPrefix is the acceptance property: for a
// random history, appending N sets, tearing the log at an arbitrary byte
// offset, and recovering yields a prefix of the history whose replayed DOEM
// equals doem.FromHistory of that prefix. Torn tails are detected by CRC
// and discarded, never misapplied.
func TestCrashRecoveryYieldsValidPrefix(t *testing.T) {
	initial, h := guidegen.GenerateHistory(7, 20, 30, 6)

	golden := t.TempDir()
	l, err := Open(golden, &Options{SegmentSize: 512, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpointDOEM(l, doem.New(initial)); err != nil {
		t.Fatal(err)
	}
	for _, step := range h {
		if _, err := appendStep(l, step); err != nil {
			t.Fatal(err)
		}
	}
	total := logBytes(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if total == 0 {
		t.Fatal("empty golden log")
	}

	// Every step's DOEM, precomputed once: expect[k] = D(initial, h[:k]).
	expect := make([]*doem.Database, len(h)+1)
	expect[0] = doem.New(initial)
	for k := 1; k <= len(h); k++ {
		d, err := doem.FromHistory(initial, h[:k])
		if err != nil {
			t.Fatal(err)
		}
		expect[k] = d
	}

	rng := rand.New(rand.NewSource(42))
	offsets := []int64{0, 1, 4, total - 1, total}
	for len(offsets) < 40 {
		offsets = append(offsets, rng.Int63n(total+1))
	}
	for _, offset := range offsets {
		dir := t.TempDir()
		copyDir(t, golden, dir)
		crash, err := Open(dir, &Options{SegmentSize: 512, Sync: SyncNever})
		if err != nil {
			t.Fatalf("offset %d: pre-crash open: %v", offset, err)
		}
		truncateLogAt(t, crash, offset)
		// The handle was only used to enumerate segments; recovery happens
		// in a fresh Open, as after a real crash.
		crash.Close()

		rec, err := Open(dir, &Options{SegmentSize: 512, Sync: SyncNever})
		if err != nil {
			t.Fatalf("offset %d: recovery open: %v", offset, err)
		}
		got, err := replayHistory(rec)
		if err != nil {
			t.Fatalf("offset %d: replay: %v", offset, err)
		}
		k := len(got)
		if k > len(h) {
			t.Fatalf("offset %d: recovered %d steps from a %d-step history", offset, k, len(h))
		}
		for i := range got {
			if !got[i].At.Equal(h[i].At) || !reflect.DeepEqual(got[i].Ops, h[i].Ops) {
				t.Fatalf("offset %d: recovered step %d is not history step %d", offset, i, i)
			}
		}
		d, err := replayDOEM(rec)
		if err != nil {
			t.Fatalf("offset %d: replay DOEM: %v", offset, err)
		}
		if !d.Equal(expect[k]) {
			t.Fatalf("offset %d: recovered DOEM (prefix %d) differs from FromHistory", offset, k)
		}
		// Recovery is idempotent and the log remains appendable.
		if _, err := rec.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("offset %d: append after recovery: %v", offset, err)
		}
		rec.Close()
	}
}

// TestRecoveryAfterBitFlip corrupts a byte mid-log (not a pure truncation):
// the CRC must stop replay at the corrupted record.
func TestRecoveryAfterBitFlip(t *testing.T) {
	initial, h := guidegen.GenerateHistory(11, 10, 12, 5)
	dir := t.TempDir()
	l, err := Open(dir, &Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkpointDOEM(l, doem.New(initial)); err != nil {
		t.Fatal(err)
	}
	for _, step := range h {
		if _, err := appendStep(l, step); err != nil {
			t.Fatal(err)
		}
	}
	paths, _, err := l.listSegments()
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	rec, err := Open(dir, &Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer rec.Close()
	got, err := replayHistory(rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(h) {
		t.Fatalf("recovered %d steps despite a mid-log bit flip", len(got))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Ops, h[i].Ops) {
			t.Fatalf("recovered step %d is not a prefix step", i)
		}
	}
	if _, err := replayDOEM(rec); err != nil {
		t.Fatal(err)
	}
}
