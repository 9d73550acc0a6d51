package lore

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
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

// TestOEMStore: a plain OEM database is stored as a DOEM database with an
// empty history and read back as its current snapshot.
func TestOEMStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	db, _ := guidegen.PaperGuide()
	if err := s.PutDOEM("guide", doem.New(db)); err != nil {
		t.Fatal(err)
	}
	got, err := s.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Current().Equal(db) {
		t.Error("stored database differs")
	}
	if _, err := s.GetDOEM("missing"); !errors.Is(err, ErrNotFound) {
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
	if err := s.PutDOEM("guide", doem.New(db)); err != nil {
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
	got, err := s2.GetDOEM("guide")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Current().Equal(db) {
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
	if err := s.PutDOEM("b", doem.New(db)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDOEM("a", doem.New(db)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutDOEM("a", paperDOEM(t)); err != nil {
		t.Fatal(err)
	}
	if list := s.List(); !reflect.DeepEqual(list, []string{"a", "b"}) {
		t.Fatalf("List = %v", list)
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
	if _, err := os.Stat(filepath.Join(dir, "a"+segExt)); !os.IsNotExist(err) {
		t.Error("segment store survived delete")
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
		if err := s.PutDOEM(name, doem.New(db)); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}
