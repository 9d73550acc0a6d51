// Package core ties the reproduction's pieces into the change-management
// system the paper describes: an OEM database under change management,
// whose history is represented as DOEM and queried with Chorel — with both
// of the paper's execution strategies available, snapshot-based change
// capture via OEMdiff, and persistence through the lore store.
package core

import (
	"fmt"

	"repro/internal/change"
	"repro/internal/chorel"
	"repro/internal/doem"
	"repro/internal/lore"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/oemdiff"
	"repro/internal/timestamp"
)

// DB is an OEM database under change management.
type DB struct {
	name string
	cdb  *chorel.DB
}

// Open places an OEM database under change management with an empty
// history. The database is cloned; subsequent changes go through Apply or
// ApplySnapshot. The name is how queries address the database
// ("guide.restaurant" for name "guide").
func Open(name string, initial *oem.Database) *DB {
	return wrap(name, doem.New(initial))
}

// FromHistory opens a database with a pre-existing history, constructing
// D(O, H) per the paper's Section 3.1.
func FromHistory(name string, initial *oem.Database, h change.History) (*DB, error) {
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		return nil, err
	}
	return wrap(name, d), nil
}

func wrap(name string, d *doem.Database) *DB {
	return &DB{name: name, cdb: chorel.New(name, d)}
}

// Name returns the query name of the database.
func (c *DB) Name() string { return c.name }

// DOEM exposes the underlying DOEM database.
func (c *DB) DOEM() *doem.Database { return c.cdb.DOEM() }

// Current returns the current snapshot (live; do not modify).
func (c *DB) Current() *oem.Database { return c.cdb.DOEM().Current() }

// SnapshotAt materializes the database as of time t.
func (c *DB) SnapshotAt(t timestamp.Time) *oem.Database {
	return c.cdb.DOEM().SnapshotAt(t)
}

// Apply records a set of basic change operations at time t.
func (c *DB) Apply(t timestamp.Time, ops change.Set) error {
	if err := c.cdb.DOEM().Apply(t, ops); err != nil {
		return err
	}
	c.cdb.Advance(t, ops)
	return nil
}

// ApplySnapshot infers the changes from the current snapshot to next (which
// must share node identity — e.g. a cooperative wrapper's snapshot) and
// records them at time t. It returns the inferred operations.
func (c *DB) ApplySnapshot(t timestamp.Time, next *oem.Database) (change.Set, error) {
	ops, err := oemdiff.DiffIdentity(c.Current(), next)
	if err != nil {
		return nil, err
	}
	if len(ops) == 0 {
		return ops, nil
	}
	if err := c.Apply(t, ops); err != nil {
		return nil, err
	}
	return ops, nil
}

// Update compiles a Lorel-style update statement ("update PATH := V where
// ...", "insert ...", "delete ...") against the current snapshot and
// records the resulting basic change operations at time t — the paper's
// "higher-level changes based on the Lorel update language" (Section 2.1).
// It returns the compiled operations; an empty set records no step.
func (c *DB) Update(t timestamp.Time, stmt string) (change.Set, error) {
	next := c.DOEM().MaxID()
	set, err := c.Engine().Update(stmt, func() oem.NodeID {
		next++
		return next
	})
	if err != nil {
		return nil, err
	}
	if len(set) == 0 {
		return set, nil
	}
	if err := c.Apply(t, set); err != nil {
		return nil, err
	}
	return set, nil
}

// Query evaluates a Chorel (or plain Lorel) query directly on the DOEM
// database — the paper's native strategy.
func (c *DB) Query(src string) (*lorel.Result, error) {
	return c.cdb.Query(src)
}

// QueryTranslated evaluates the query by translating it to Lorel over the
// OEM encoding — the paper's Section 5 strategy. Results reference encoding
// objects; MapToDOEM converts them back.
func (c *DB) QueryTranslated(src string) (*lorel.Result, error) {
	return c.cdb.QueryTranslated(src)
}

// MapToDOEM maps node ids from QueryTranslated results back to DOEM ids.
func (c *DB) MapToDOEM(ids []oem.NodeID) []oem.NodeID { return c.cdb.MapToDOEM(ids) }

// Engine returns the underlying direct-evaluation engine, for registering
// additional databases or polling times.
func (c *DB) Engine() *lorel.Engine { return c.cdb.Engine() }

// History extracts the recorded history H(D).
func (c *DB) History() change.History { return c.cdb.DOEM().ExtractHistory() }

// Save persists the database into a lore store under its name.
func (c *DB) Save(store *lore.Store) error {
	return store.PutDOEM(c.name, c.cdb.DOEM())
}

// Load opens a change-managed database previously saved under name.
func Load(store *lore.Store, name string) (*DB, error) {
	d, err := store.GetDOEM(name)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return wrap(name, d), nil
}
