package lore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/wal"
)

// walGuide seeds a WAL store with a generated guide and applies its history
// through ApplySet; it returns the expected final DOEM.
func walGuide(t *testing.T, s *Store, name string) *doem.Database {
	t.Helper()
	initial, h := guidegen.GenerateHistory(3, 15, 12, 5)
	if err := s.PutDOEM(name, doem.New(initial)); err != nil {
		t.Fatal(err)
	}
	for _, step := range h {
		if err := s.ApplySet(name, step.At, step.Ops); err != nil {
			t.Fatal(err)
		}
	}
	want, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestWALStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWAL(dir, &wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	want := walGuide(t, s, "guide")
	got, err := s.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("in-memory DOEM differs from FromHistory")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reload: checkpoint + log replay must reconstruct the same database.
	s2, err := OpenWAL(dir, &wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got2, err := s2.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got2.Equal(want) {
		t.Error("DOEM changed across WAL-backed restart")
	}
}

func TestWALStoreCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWAL(dir, &wal.Options{SegmentSize: 256, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := walGuide(t, s, "guide")
	walDir := filepath.Join(dir, "guide"+walExt)
	if n := countSegments(t, walDir); n < 2 {
		t.Fatalf("want several segments before checkpoint, got %d", n)
	}
	if err := s.Checkpoint("guide"); err != nil {
		t.Fatal(err)
	}
	if n := countSegments(t, walDir); n != 0 {
		t.Errorf("%d segments survive a checkpoint, want 0", n)
	}
	s2, err := OpenWAL(dir, &wal.Options{SegmentSize: 256, Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("DOEM changed across checkpoint + restart")
	}
}

func countSegments(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".seg") {
			n++
		}
	}
	return n
}

func TestWALStoreDeleteRemovesLog(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWAL(dir, &wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	walGuide(t, s, "guide")
	if err := s.Delete("guide"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "guide"+walExt)); !os.IsNotExist(err) {
		t.Errorf("wal directory survives Delete: %v", err)
	}
	if _, err := s.GetDOEM("guide"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted db: %v", err)
	}
}

func TestWALStorePutDOEMReplaces(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenWAL(dir, &wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	walGuide(t, s, "guide")
	d := paperDOEM(t)
	if err := s.PutDOEM("guide", d); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenWAL(dir, &wal.Options{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d) {
		t.Error("PutDOEM did not replace the logged database")
	}
}

// TestSnapshotModeApplySet: without a WAL, ApplySet still persists by
// rewriting the snapshot.
func TestSnapshotModeApplySet(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := walGuide(t, s, "guide")
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("DOEM changed across snapshot-mode restart")
	}
}

func TestOpenWALRequiresDir(t *testing.T) {
	if _, err := OpenWAL("", nil); err == nil {
		t.Fatal("OpenWAL accepted an empty directory")
	}
}
