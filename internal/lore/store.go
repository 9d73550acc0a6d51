// Package lore is a small storage manager standing in for the Lore DBMS the
// paper builds on: it keeps named DOEM databases in a directory of segment
// stores (internal/segment) and nothing else. Each history is a
// write-ahead log of change sets whose checkpoints are seals. A plain OEM
// database is a DOEM database with an empty history: store it with
// PutDOEM(name, doem.New(db)) and read it back as GetDOEM(name)'s Current().
package lore

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/segment"
	"repro/internal/timestamp"
	"repro/internal/wal"
)

// Store manages named DOEM databases in a directory of segment stores and
// nothing else: each lives in a <name>.doemseg segment store, ApplySet
// appends only the delta, and Checkpoint seals.
//
// Concurrency: Store methods are safe to call concurrently. Live queries
// read a DOEM database's whole history through ViewIndexed, which holds
// off ApplySet for the duration of the callback (readers of different
// databases never block each other); GetDOEM returns a copy of it.
type Store struct {
	dir    string
	walOpt *wal.Options
	segPol *segment.Policy

	mu     sync.RWMutex
	stores map[string]*segment.Store

	// locks holds one RWMutex per DOEM name, coordinating readers of the
	// segment store's graph with ApplySet's in-place mutation without
	// serializing reads of unrelated databases behind the store-wide mu.
	lkMu  sync.Mutex
	locks map[string]*sync.RWMutex
}

// ErrNotFound reports a missing database name.
var ErrNotFound = errors.New("lore: database not found")

const (
	// oemExt and doemExt are the JSON files in which earlier versions of
	// the store kept an OEM and a DOEM database; Open refuses a directory
	// holding one.
	oemExt  = ".oem.json"
	doemExt = ".doem.json"
	segExt  = ".doemseg"
)

// Open loads a store from dir, creating the directory if needed. It is
// OpenSegmented(dir, nil, nil).
func Open(dir string) (*Store, error) { return OpenSegmented(dir, nil, nil) }

// OpenSegmented loads a store whose DOEM databases each live in a
// <name>.doemseg segment store holding sealed segments plus an
// active-segment WAL tail. opt may be nil for default log options; pol
// controls automatic sealing, and nil seals only on explicit Checkpoint
// calls. A <name>.doemseg.tmp directory is a removal that a crash cut
// short (see Delete) and is removed. A <name>.oem.json or <name>.doem.json
// file, the layout of earlier versions, is no longer read: Open refuses it
// and removes nothing. A store needs a directory: an empty dir is refused.
func OpenSegmented(dir string, opt *wal.Options, pol *segment.Policy) (*Store, error) {
	if dir == "" {
		return nil, errors.New("lore: a store needs a directory")
	}
	start, wallStart := obs.Now(), time.Now()
	s := &Store{
		dir:    dir,
		walOpt: opt,
		segPol: pol,
		stores: make(map[string]*segment.Store),
		locks:  make(map[string]*sync.RWMutex),
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lore: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lore: %w", err)
	}
	replayed := 0
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case ent.IsDir() && strings.HasSuffix(name, segExt+".tmp"):
			if err := wal.RemoveDir(filepath.Join(dir, name)); err != nil {
				s.Close()
				return nil, fmt.Errorf("lore: %w", err)
			}
		case ent.IsDir() && strings.HasSuffix(name, segExt):
			base := strings.TrimSuffix(name, segExt)
			st, err := segment.Open(filepath.Join(dir, name), opt, pol)
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("lore: opening segments %s: %w", name, err)
			}
			replayed += st.Stats().Records
			s.stores[base] = st
		case ent.IsDir():
			continue
		case strings.HasSuffix(name, oemExt), strings.HasSuffix(name, doemExt):
			s.Close()
			return nil, fmt.Errorf("lore: %s is a database in the JSON layout of an older version, which is no longer read; move it out of %s",
				filepath.Join(dir, name), dir)
		}
	}
	mReplayNs.ObserveSince(start)
	mReplayRecords.Add(int64(replayed))
	log.Printf("lore: opened %s: %d DOEM database(s), replayed %d log record(s) in %s",
		dir, len(s.stores), replayed, time.Since(wallStart).Round(time.Microsecond))
	return s, nil
}

// PutDOEM stores (and persists) a DOEM database under name, replacing any
// database of that name. It starts a fresh segment store whose checkpoint
// is d and keeps its own copy of d, so later changes to d reach the store
// only through another PutDOEM; deltas should go through ApplySet. A
// replaced store is moved aside and removed, as Delete does, before the
// new one is created.
func (s *Store) PutDOEM(name string, d *doem.Database) error {
	if err := validName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.stores[name]; ok {
		old.Close()
		delete(s.stores, name)
	}
	segDir := filepath.Join(s.dir, name+segExt)
	if err := wal.RemoveDir(segDir); err != nil {
		return fmt.Errorf("lore: %w", err)
	}
	st, err := segment.Create(segDir, d, s.walOpt, s.segPol)
	if err != nil {
		return fmt.Errorf("lore: %w", err)
	}
	s.stores[name] = st
	return nil
}

// lockFor returns the RWMutex coordinating readers and writers of the
// named DOEM database, creating it on first use.
func (s *Store) lockFor(name string) *sync.RWMutex {
	s.lkMu.Lock()
	defer s.lkMu.Unlock()
	lk, ok := s.locks[name]
	if !ok {
		lk = &sync.RWMutex{}
		s.locks[name] = lk
	}
	return lk
}

// ViewIndexed runs fn with read access to the named DOEM database's whole
// history, holding off ApplySet mutations of that database (and only that
// database) until fn returns. The graph is the segment store's merged
// graph: sealed-segment indexes plus the active segment. Any number of
// readers run concurrently; fn must not retain the graph past its return.
func (s *Store) ViewIndexed(name string, fn func(lorel.Graph) error) error {
	st, err := s.segmentStore(name)
	if err != nil {
		return err
	}
	lk := s.lockFor(name)
	lk.RLock()
	defer lk.RUnlock()
	return fn(st.Graph())
}

// ApplySet applies one timestamped change set to the named DOEM database
// and persists it: a segment store appends only the delta to its log,
// O(|ops|) I/O, and seals when its policy says so.
func (s *Store) ApplySet(name string, t timestamp.Time, ops change.Set) error {
	start := obs.Now()
	err := s.applySet(name, t, ops)
	mApplies.Inc()
	mApplyNs.ObserveSince(start)
	if err != nil {
		mApplyFailures.Inc()
	}
	return err
}

func (s *Store) applySet(name string, t timestamp.Time, ops change.Set) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stores[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// The in-place mutation excludes readers of this database. Lock order
	// is always store mu → name lock; readers hold only the name lock
	// (segmentStore's RLock is released before they block), so the two
	// locks cannot deadlock.
	lk := s.lockFor(name)
	lk.Lock()
	defer lk.Unlock()
	return st.Apply(t, ops)
}

// Checkpoint seals the named database's active segment: its interval
// becomes an immutable sealed segment and a fresh active segment takes
// over (Section 6.1 log compaction).
//
// Checkpoint and ApplySet both hold the store-wide mutex for their full
// duration, so a seal never interleaves with an append.
func (s *Store) Checkpoint(name string) error {
	start := obs.Now()
	defer func() {
		mCheckpoints.Inc()
		mCheckpointNs.ObserveSince(start)
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stores[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	lk := s.lockFor(name)
	lk.Lock()
	defer lk.Unlock()
	return st.Seal()
}

// Close releases the segment stores. The store must not be used
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for name, st := range s.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.stores, name)
	}
	return first
}

// SegmentStore returns the segment store backing the named DOEM database.
func (s *Store) SegmentStore(name string) (*segment.Store, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.stores[name]
	return st, ok
}

// segmentStore is SegmentStore with ErrNotFound for a missing name.
func (s *Store) segmentStore(name string) (*segment.Store, error) {
	st, ok := s.SegmentStore(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return st, nil
}

// GetDOEM returns a copy of the named DOEM database with its whole
// history, replayed from its sealed segments and its active segment under
// the database's read lock: Equal to the monolithic database of the same
// initial snapshot and history. Later changes reach the store only through
// ApplySet, and the store's changes do not reach the copy.
func (s *Store) GetDOEM(name string) (*doem.Database, error) {
	st, err := s.segmentStore(name)
	if err != nil {
		return nil, err
	}
	lk := s.lockFor(name)
	lk.RLock()
	defer lk.RUnlock()
	return st.Replay()
}

// Delete removes a database and its segment store. The store is first
// renamed aside (wal.RemoveDir), so a crash leaves the name with its whole
// history or with none, never with a store Open refuses.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.stores[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	st.Close()
	delete(s.stores, name)
	if err := wal.RemoveDir(filepath.Join(s.dir, name+segExt)); err != nil {
		return fmt.Errorf("lore: %w", err)
	}
	return nil
}

// List returns the names of all databases, sorted.
func (s *Store) List() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.stores))
	for n := range s.stores {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("lore: invalid database name %q", name)
	}
	return nil
}
