package lore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lorel"
	"repro/internal/segment"
	"repro/internal/wal"
)

// applyGuide seeds a store with a generated guide and applies its history
// through ApplySet; it returns the expected final DOEM.
func applyGuide(t *testing.T, s *Store, name string) *doem.Database {
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

// checkQueries compares the store's answers for the named database with
// the answers of a monolithic database holding the same history.
func checkQueries(t *testing.T, s *Store, name string, want *doem.Database) {
	t.Helper()
	queries := []string{
		`select guide.restaurant.name`,
		`select T from guide.<add at T>restaurant`,
		`select T, OV, NV from guide.restaurant.price<upd at T from OV to NV>`,
	}
	raw := lorel.NewEngine()
	raw.Register("guide", want)
	for _, q := range queries {
		wantRes, err := raw.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		err = s.ViewIndexed(name, func(g lorel.Graph) error {
			eng := lorel.NewEngine()
			eng.Register("guide", g)
			got, err := eng.Query(q)
			if err != nil {
				return err
			}
			if got.String() != wantRes.String() {
				t.Errorf("store result diverges for %q:\n%s\nwant\n%s", q, got, wantRes)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreRoundTrip: ApplySet appends each set to the segment store's
// log, and reopening replays the tail to the same database.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, &wal.Options{Sync: wal.SyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := applyGuide(t, s, "guide")
	if got, err := s.GetDOEM("guide"); err != nil || !got.Equal(want) {
		t.Fatalf("in-memory DOEM differs from FromHistory (err %v)", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegmented(dir, &wal.Options{Sync: wal.SyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got, err := s2.GetDOEM("guide"); err != nil || !got.Equal(want) {
		t.Fatalf("DOEM changed across a restart (err %v)", err)
	}
}

// TestApplySetPersistsAcrossOpen: a store opened with Open persists
// ApplySet too.
func TestApplySetPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := applyGuide(t, s, "guide")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("DOEM changed across a restart")
	}
}

// TestOpenListsSegmentedDirectory: Open reads a directory that
// OpenSegmented wrote, sealed segments included.
func TestOpenListsSegmentedDirectory(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, nil, &segment.Policy{SealAnnotations: 20})
	if err != nil {
		t.Fatal(err)
	}
	want := applyGuide(t, s, "guide")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.List(); len(got) != 1 || got[0] != "guide" {
		t.Fatalf("List = %v, want [guide]", got)
	}
	checkQueries(t, s2, "guide", want)
}

// TestOpenRefusesDOEMJSON: a <name>.doem.json file, the layout earlier
// versions of the store wrote on every step, and a <name>.oem.json file,
// their OEM database, are no longer read. Open refuses the directory with
// an error that names the file, and leaves the file where it is.
func TestOpenRefusesDOEMJSON(t *testing.T) {
	for name, legacy := range map[string]string{
		"guide" + doemExt: `{"current":{"root":1,"nodes":[{"id":1,"kind":"complex"}],"arcs":[]}}`,
		"x" + oemExt:      `{"root":1,"nodes":[{"id":1,"kind":"complex"}],"arcs":[]}`,
	} {
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(filepath.Dir(path))
		if err == nil {
			s.Close()
			t.Fatalf("Open read a directory holding %s", name)
		}
		if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), "older version") {
			t.Errorf("error %q does not name %s as an older layout", err, path)
		}
		if data, err := os.ReadFile(path); err != nil || string(data) != legacy {
			t.Errorf("the refused file changed: %q, %v", data, err)
		}
	}
}

func TestStoreDeleteRemovesDirectory(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	applyGuide(t, s, "guide")
	if err := s.Delete("guide"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "guide"+segExt)); !os.IsNotExist(err) {
		t.Errorf("segment directory survives Delete: %v", err)
	}
	if _, err := s.GetDOEM("guide"); !errors.Is(err, ErrNotFound) {
		t.Errorf("deleted db: %v", err)
	}
}

// asideDirs lists the directories of dir left by a store removal.
func asideDirs(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var aside []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			aside = append(aside, e.Name())
		}
	}
	return aside
}

// TestOpenRemovesCutShortRemoval: a segment store that a crash left half
// removed under its aside name — here missing a committed segment, which
// segment.Open refuses — is not a database. Open must succeed, list the
// other names only, and remove the leftover.
func TestOpenRemovesCutShortRemoval(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutDOEM("guide", paperDOEM(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint("guide"); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDOEM("other", paperDOEM(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	aside := filepath.Join(dir, "guide"+segExt+".tmp")
	if err := os.Rename(filepath.Join(dir, "guide"+segExt), aside); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(aside, "seg-000001.seg")); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatalf("Open refuses the store over a cut-short removal: %v", err)
	}
	defer s.Close()
	if got := s.List(); len(got) != 1 || got[0] != "other" {
		t.Errorf("List = %v, want only other", got)
	}
	if left := asideDirs(t, dir); len(left) != 0 {
		t.Errorf("Open kept %v", left)
	}
}

// TestRemovalLeavesNoAside: Delete and a replacing PutDOEM remove the
// store they move aside, and the directory reopens with what is left.
func TestRemovalLeavesNoAside(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	applyGuide(t, s, "guide")
	applyGuide(t, s, "gone")
	for _, name := range []string{"guide", "gone"} {
		if err := s.Checkpoint(name); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("gone"); err != nil {
		t.Fatal(err)
	}
	d := paperDOEM(t)
	if err := s.PutDOEM("guide", d); err != nil {
		t.Fatal(err)
	}
	if left := asideDirs(t, dir); len(left) != 0 {
		t.Errorf("removals left %v", left)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.List(); len(got) != 1 || got[0] != "guide" {
		t.Errorf("List after reopen = %v, want only guide", got)
	}
	if got, err := s.GetDOEM("guide"); err != nil || !got.Equal(d) {
		t.Errorf("reopened guide differs from the replacing database: %v", err)
	}
}

func TestStorePutDOEMReplaces(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	applyGuide(t, s, "guide")
	if err := s.Checkpoint("guide"); err != nil {
		t.Fatal(err)
	}
	d := paperDOEM(t)
	if err := s.PutDOEM("guide", d); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(d) {
		t.Error("PutDOEM did not replace the stored database")
	}
	if st, _ := s2.SegmentStore("guide"); st.Segments() != 0 {
		t.Errorf("%d sealed segments of the replaced database survive", st.Segments())
	}
}

// TestSegmentedStoreRoundTrip drives a full history through a segmented
// store with an aggressive auto-seal policy, then checks queries against a
// monolithic database built from the same history, across a restart.
func TestSegmentedStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	pol := &segment.Policy{SealAnnotations: 20}
	s, err := OpenSegmented(dir, &wal.Options{Sync: wal.SyncNever}, pol)
	if err != nil {
		t.Fatal(err)
	}
	initial, h := guidegen.GenerateHistory(3, 15, 12, 5)
	if err := s.PutDOEM("guide", doem.New(initial.Clone())); err != nil {
		t.Fatal(err)
	}
	for _, step := range h {
		if err := s.ApplySet("guide", step.At, step.Ops); err != nil {
			t.Fatal(err)
		}
	}
	want, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatal(err)
	}

	st, ok := s.SegmentStore("guide")
	if !ok {
		t.Fatal("segmented store has no segment store for guide")
	}
	if st.Segments() == 0 {
		t.Fatal("auto-seal policy produced no sealed segments")
	}

	checkQueries(t, s, "guide", want)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenSegmented(dir, &wal.Options{Sync: wal.SyncNever}, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkQueries(t, s2, "guide", want)

	if st, _ := s2.SegmentStore("guide"); st.MaxID() != want.MaxID() {
		t.Errorf("MaxID = %v; want %v", st.MaxID(), want.MaxID())
	}
}

// TestSegmentedStoreCheckpointSeals: Checkpoint is a seal — it must produce a new sealed segment and leave the database
// answering identically.
func TestSegmentedStoreCheckpointSeals(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmented(dir, &wal.Options{Sync: wal.SyncNever}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := applyGuide(t, s, "guide")
	st, _ := s.SegmentStore("guide")
	if n := st.Segments(); n != 0 {
		t.Fatalf("segments before checkpoint = %d, want 0 (nil policy)", n)
	}
	if err := s.Checkpoint("guide"); err != nil {
		t.Fatal(err)
	}
	if n := st.Segments(); n != 1 {
		t.Fatalf("segments after checkpoint = %d, want 1", n)
	}
	segDir := filepath.Join(dir, "guide"+segExt)
	if _, err := os.Stat(filepath.Join(segDir, "seg-000001.seg")); err != nil {
		t.Fatalf("sealed segment file missing: %v", err)
	}
	got, err := s.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Error("history diverged across a seal")
	}
	checkQueries(t, s, "guide", want)
}

// TestGetDOEMAfterSeals: after the policy sealed part of the history away,
// GetDOEM still returns the whole of it — Equal to the monolithic database
// of the same history, before and after a restart — not just the steps of
// the active segment.
func TestGetDOEMAfterSeals(t *testing.T) {
	dir := t.TempDir()
	pol := &segment.Policy{SealAnnotations: 20}
	s, err := OpenSegmented(dir, &wal.Options{Sync: wal.SyncNever}, pol)
	if err != nil {
		t.Fatal(err)
	}
	want := applyGuide(t, s, "guide")
	check := func(s *Store, when string) {
		t.Helper()
		if st, _ := s.SegmentStore("guide"); st.Segments() == 0 {
			t.Fatalf("%s: the policy sealed nothing", when)
		}
		got, err := s.GetDOEM("guide")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: GetDOEM holds %d of %d steps and is not Equal to FromHistory",
				when, len(got.Steps()), len(want.Steps()))
		}
	}
	check(s, "live")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenSegmented(dir, &wal.Options{Sync: wal.SyncNever}, pol)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2, "reopened")
}
