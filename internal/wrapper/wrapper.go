// Package wrapper provides the source abstraction the Query Subscription
// Service polls — the stand-in for Tsimmis wrappers and mediators
// (paper Section 6): each source, when polled, produces an OEM snapshot of
// an autonomous information system that offers no triggers and no history.
//
// A polled snapshot is read-only and may be shared: Mutable hands every
// poller of one version the same copy-on-write database.
package wrapper

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"repro/internal/oem"
	"repro/internal/value"
)

// Source is a pollable information source presenting an OEM view.
type Source interface {
	// Poll returns the source's current snapshot. Callers must not modify
	// the returned database; successive polls may return the same object.
	Poll() (*oem.Database, error)
	// StableIDs reports whether node ids persist across polls (a wrapper
	// over a system with object identity). QSS uses the identity differ
	// when true and the matching differ otherwise.
	StableIDs() bool
}

// Static is a source whose snapshot never changes.
type Static struct{ DB *oem.Database }

// Poll implements Source.
func (s Static) Poll() (*oem.Database, error) { return s.DB, nil }

// StableIDs implements Source.
func (s Static) StableIDs() bool { return true }

// Mutable is a source backed by a live OEM database mutated between polls,
// with stable object identity — the shape of a cooperative wrapper.
//
// It is copy-on-write: Poll hands out the live database and marks it
// shared, and the next Mutate clones it before changing it. A source
// version costs one clone however many subscriptions poll it, none if
// nobody does, and every poll of one version reads the same object.
type Mutable struct {
	mu     sync.Mutex
	db     *oem.Database
	shared bool // db has been handed out by Poll since its last clone
}

// NewMutable wraps db as a mutable source. The source owns db from then
// on: change it only through Mutate.
func NewMutable(db *oem.Database) *Mutable { return &Mutable{db: db} }

// Poll implements Source: it returns the current version, which later
// mutations leave untouched.
func (m *Mutable) Poll() (*oem.Database, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shared = true
	return m.db, nil
}

// StableIDs implements Source.
func (m *Mutable) StableIDs() bool { return true }

// Mutate runs fn under the source lock on the database to change, which
// is a private copy whenever the current version has been polled. fn must
// change only the database it is passed: one it captured earlier may be a
// snapshot that pollers are reading.
func (m *Mutable) Mutate(fn func(db *oem.Database) error) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.shared {
		m.db, m.shared = m.db.Clone(), false
	}
	return fn(m.db)
}

// Func adapts a function to a Source.
type Func struct {
	PollFunc func() (*oem.Database, error)
	Stable   bool
}

// Poll implements Source.
func (f Func) Poll() (*oem.Database, error) { return f.PollFunc() }

// StableIDs implements Source.
func (f Func) StableIDs() bool { return f.Stable }

// Unstable wraps a source and re-copies every snapshot with fresh node ids,
// simulating sources without object identity (a re-fetched web page).
type Unstable struct{ Inner Source }

// Poll implements Source.
func (u Unstable) Poll() (*oem.Database, error) {
	db, err := u.Inner.Poll()
	if err != nil {
		return nil, err
	}
	// Copy with a throwaway remap so every poll assigns new ids.
	out := oem.New()
	remap := make(map[oem.NodeID]oem.NodeID)
	var copyNode func(n oem.NodeID) oem.NodeID
	copyNode = func(n oem.NodeID) oem.NodeID {
		if id, ok := remap[n]; ok {
			return id
		}
		id := out.CreateNode(db.MustValue(n))
		remap[n] = id
		for _, a := range db.Out(n) {
			c := copyNode(a.Child)
			if err := out.AddArc(id, a.Label, c); err != nil {
				panic(err)
			}
		}
		return id
	}
	for _, a := range db.Out(db.Root()) {
		c := copyNode(a.Child)
		if err := out.AddArc(out.Root(), a.Label, c); err != nil {
			panic(err)
		}
	}
	return out, nil
}

// StableIDs implements Source.
func (u Unstable) StableIDs() bool { return false }

// CSV is a source over tabular data — the shape of a wrapper over a
// relational or mainframe system (the paper's library example). Each row
// becomes a complex object under the root, labeled with Row; columns become
// atomic children labeled by header. Rows are identified by the key column,
// so ids are stable across polls as long as keys persist.
type CSV struct {
	Row string // arc label for each row object, e.g. "book"
	Key string // header name of the identifying column

	mu      sync.Mutex
	fetch   func() (string, error)
	ids     map[string]oem.NodeID // key value -> row object id
	cellIDs map[string]oem.NodeID // key+column -> cell atom id
	next    oem.NodeID            // persistent id allocator
}

// NewCSV builds a CSV source; fetch returns the current CSV text (with a
// header row) on each poll.
func NewCSV(row, key string, fetch func() (string, error)) *CSV {
	return &CSV{
		Row: row, Key: key, fetch: fetch,
		ids:     make(map[string]oem.NodeID),
		cellIDs: make(map[string]oem.NodeID),
		next:    1, // the root id; alloc pre-increments past it
	}
}

func (c *CSV) alloc() oem.NodeID {
	c.next++
	return c.next
}

// Poll implements Source: it parses the current CSV text into an OEM
// snapshot, keeping row object ids stable by key.
func (c *CSV) Poll() (*oem.Database, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	text, err := c.fetch()
	if err != nil {
		return nil, err
	}
	r := csv.NewReader(strings.NewReader(text))
	header, err := r.Read()
	if err != nil {
		return nil, fmt.Errorf("wrapper: csv header: %w", err)
	}
	keyIdx := -1
	for i, h := range header {
		if h == c.Key {
			keyIdx = i
		}
	}
	if keyIdx < 0 {
		return nil, fmt.Errorf("wrapper: csv key column %q not found", c.Key)
	}
	db := oem.New()
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("wrapper: csv: %w", err)
		}
		key := rec[keyIdx]
		rowID, ok := c.ids[key]
		if !ok {
			rowID = c.alloc()
			c.ids[key] = rowID
		}
		if !db.Has(rowID) {
			if err := db.CreateNodeWithID(rowID, value.Complex()); err != nil {
				return nil, fmt.Errorf("wrapper: csv row %q: %w", key, err)
			}
		}
		if err := db.AddArc(db.Root(), c.Row, rowID); err != nil {
			return nil, fmt.Errorf("wrapper: csv row %q: %w", key, err)
		}
		for i, col := range rec {
			if i >= len(header) {
				break
			}
			cellKey := key + "\x00" + header[i]
			cellID, ok := c.cellIDs[cellKey]
			if !ok {
				cellID = c.alloc()
				c.cellIDs[cellKey] = cellID
			}
			if err := db.CreateNodeWithID(cellID, parseCell(col)); err != nil {
				return nil, fmt.Errorf("wrapper: csv cell: %w", err)
			}
			if err := db.AddArc(rowID, header[i], cellID); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// StableIDs implements Source: row objects are keyed by the key column and
// cell atoms by (key, column), so value changes surface as updNode
// operations.
func (c *CSV) StableIDs() bool { return true }

// parseCell coerces a CSV cell: integer, real, boolean, else string.
func parseCell(s string) value.Value {
	if i, err := strconv.ParseInt(s, 10, 64); err == nil {
		return value.Int(i)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return value.Real(f)
	}
	switch strings.ToLower(s) {
	case "true":
		return value.Bool(true)
	case "false":
		return value.Bool(false)
	}
	return value.Str(s)
}
