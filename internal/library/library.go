// Package library simulates the paper's second motivating example
// (Section 1.1): a legacy library circulation system with no triggers and
// no queryable history. The simulator exposes the current circulation state
// as an OEM snapshot through a wrapper.Source; the "popular book becomes
// available" subscription is then expressible as a Chorel filter query over
// the DOEM history QSS accumulates.
package library

import (
	"fmt"
	"math/rand"

	"repro/internal/oem"
	"repro/internal/value"
)

// Book statuses.
const (
	StatusIn  = "in"
	StatusOut = "out"
)

// Sim is a deterministic circulation simulator. The OEM view is:
//
//	library.book* -> { title, author, status ("in"/"out"),
//	                   checkouts (int, cumulative) }
//
// Node ids are stable across snapshots (the wrapper has object identity),
// so QSS uses the exact identity differ.
type Sim struct {
	rng   *rand.Rand
	db    *oem.Database
	books []bookState
}

type bookState struct {
	node      oem.NodeID
	status    oem.NodeID // status atom
	checkouts oem.NodeID // cumulative checkout counter atom
	out       bool
	count     int64
	title     string
}

var titles = []string{
	"A Discipline of Programming", "The Art of Computer Programming",
	"Structure and Interpretation", "The Mythical Man-Month",
	"Transaction Processing", "Readings in Database Systems",
	"The C Programming Language", "Compilers: Principles and Techniques",
	"Computer Networks", "Operating System Concepts",
}

var authors = []string{
	"Dijkstra", "Knuth", "Abelson", "Brooks", "Gray",
	"Stonebraker", "Kernighan", "Aho", "Tanenbaum", "Silberschatz",
}

// New builds a simulator with n books, all on the shelf.
func New(seed int64, n int) *Sim {
	s := &Sim{rng: rand.New(rand.NewSource(seed)), db: oem.New()}
	for i := 0; i < n; i++ {
		b := s.db.CreateNode(value.Complex())
		mustArc(s.db, s.db.Root(), "book", b)
		title := fmt.Sprintf("%s, vol. %d", titles[i%len(titles)], i/len(titles)+1)
		addAtom(s.db, b, "title", value.Str(title))
		addAtom(s.db, b, "author", value.Str(authors[i%len(authors)]))
		status := addAtom(s.db, b, "status", value.Str(StatusIn))
		checkouts := addAtom(s.db, b, "checkouts", value.Int(0))
		s.books = append(s.books, bookState{
			node: b, status: status, checkouts: checkouts, title: title,
		})
	}
	return s
}

func mustArc(db *oem.Database, p oem.NodeID, l string, c oem.NodeID) {
	if err := db.AddArc(p, l, c); err != nil {
		panic(err)
	}
}

func addAtom(db *oem.Database, p oem.NodeID, l string, v value.Value) oem.NodeID {
	n := db.CreateNode(v)
	mustArc(db, p, l, n)
	return n
}

// Snapshot returns a copy of the current circulation database.
func (s *Sim) Snapshot() *oem.Database { return s.db.Clone() }

// DB returns the live database (for wrapper.NewMutable-style embedding).
func (s *Sim) DB() *oem.Database { return s.db }

// SetDB makes db the database later events change — the copy a
// copy-on-write source passes to its mutation function.
func (s *Sim) SetDB(db *oem.Database) { s.db = db }

// Checkout marks book i as checked out, bumping its counter. It reports
// whether the state changed.
func (s *Sim) Checkout(i int) bool {
	b := &s.books[i]
	if b.out {
		return false
	}
	b.out = true
	b.count++
	must(s.db.UpdateNode(b.status, value.Str(StatusOut)))
	must(s.db.UpdateNode(b.checkouts, value.Int(b.count)))
	return true
}

// Return marks book i as back on the shelf.
func (s *Sim) Return(i int) bool {
	b := &s.books[i]
	if !b.out {
		return false
	}
	b.out = false
	must(s.db.UpdateNode(b.status, value.Str(StatusIn)))
	return true
}

// Step performs nEvents random circulation events (checkouts and returns).
func (s *Sim) Step(nEvents int) {
	for i := 0; i < nEvents; i++ {
		b := s.rng.Intn(len(s.books))
		if s.books[b].out {
			// Returns are a bit more likely than repeat attempts.
			if s.rng.Intn(3) != 0 {
				s.Return(b)
			}
		} else if s.rng.Intn(2) == 0 {
			s.Checkout(b)
		}
	}
}

// NumBooks returns the number of books.
func (s *Sim) NumBooks() int { return len(s.books) }

// Title returns the title of book i.
func (s *Sim) Title(i int) string { return s.books[i].title }

// IsOut reports whether book i is checked out.
func (s *Sim) IsOut(i int) bool { return s.books[i].out }

// Checkouts returns the cumulative checkout count of book i.
func (s *Sim) Checkouts(i int) int64 { return s.books[i].count }

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// PopularAvailableQuery is the Chorel filter query of the paper's library
// example: notify when a book that has been checked out two or more times
// since `since` is (back) on the shelf. Two distinct upd annotations on the
// checkouts counter with timestamps after `since` witness "two or more
// checkouts"; the current status witnesses availability. The query is
// parameterized by the DOEM database name registered in the engine.
func PopularAvailableQuery(dbName, since string) string {
	return fmt.Sprintf(`select T from %[1]s.book B, B.title T
		where B.status = "in"
		  and B.checkouts<upd at T1> >= 0 and T1 > %[2]s
		  and B.checkouts<upd at T2> >= 0 and T2 > T1`, dbName, since)
}

// PopularAvailableQueryCount is the same filter expressed with Lorel
// aggregation: at least two checkout-counter updates in the history, and
// currently on the shelf. (The windowed variant above additionally bounds
// the update times.)
func PopularAvailableQueryCount(dbName string) string {
	return fmt.Sprintf(`select T from %[1]s.book B, B.title T
		where B.status = "in" and count(B.checkouts<upd at T1>) >= 2`, dbName)
}
