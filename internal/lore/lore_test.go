package lore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
)

func paperDOEM(t testing.TB) *doem.Database {
	t.Helper()
	db, ids := guidegen.PaperGuide()
	d, err := doem.FromHistory(db, guidegen.PaperHistory(ids))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestOpenRefusesEmptyDir: a store keeps its databases in a directory;
// there is no in-memory store.
func TestOpenRefusesEmptyDir(t *testing.T) {
	if s, err := Open(""); err == nil {
		s.Close()
		t.Fatal(`Open("") returned a store`)
	}
}

func TestOEMStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, _ := guidegen.PaperGuide()
	if err := s.PutOEM("guide", db); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(db) {
		t.Error("stored database differs")
	}
	if _, err := s.GetOEM("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing db: %v", err)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := guidegen.PaperGuide()
	d := paperDOEM(t)
	if err := s.PutOEM("guide", db); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDOEM("guide-history", d); err != nil {
		t.Fatal(err)
	}

	// Reopen and compare.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.GetOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(db) {
		t.Error("OEM database changed across restart")
	}
	gd, err := s2.GetDOEM("guide-history")
	if err != nil {
		t.Fatal(err)
	}
	if !gd.Equal(d) {
		t.Error("DOEM database changed across restart")
	}
}

func TestListAndDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db, _ := guidegen.PaperGuide()
	if err := s.PutOEM("b", db); err != nil {
		t.Fatal(err)
	}
	if err := s.PutOEM("a", db); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDOEM("a", paperDOEM(t)); err != nil {
		t.Fatal(err)
	}
	list := s.List()
	if len(list) != 3 {
		t.Fatalf("List = %v", list)
	}
	if list[0].Name != "a" || list[0].Kind != "doem" || list[2].Name != "b" {
		t.Errorf("List order = %v", list)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if len(s.List()) != 1 {
		t.Error("Delete left entries behind")
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	// Files are gone too.
	if _, err := os.Stat(filepath.Join(dir, "a.oem.json")); !os.IsNotExist(err) {
		t.Error("oem file survived delete")
	}
}

func TestInvalidNames(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, _ := guidegen.PaperGuide()
	for _, name := range []string{"", "a/b", `a\b`, ".hidden"} {
		if err := s.PutOEM(name, db); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}
