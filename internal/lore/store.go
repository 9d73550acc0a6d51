// Package lore is a small storage manager standing in for the Lore DBMS the
// paper builds on: it keeps named OEM and DOEM databases and persists them
// to a directory. Every DOEM database it keeps on disk is a segment store
// (internal/segment): its history is a write-ahead log of change sets whose
// checkpoints are seals.
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
	"repro/internal/oem"
	"repro/internal/oemio"
	"repro/internal/segment"
	"repro/internal/timestamp"
	"repro/internal/wal"
)

// Store manages named databases under a directory. A Store with an empty
// directory is purely in-memory: its DOEM databases are plain
// *doem.Database values. Otherwise each DOEM database lives in a
// <name>.doemseg segment store, ApplySet appends only the delta, and
// Checkpoint seals; OEM databases are <name>.oem.json files.
//
// Concurrency: Store methods are safe to call concurrently. The pointer
// GetDOEM returns is the live database, which ApplySet mutates in place —
// callers that query while another goroutine applies change sets must read
// through ViewDOEM or ViewIndexed, which exclude mutation for the duration
// of the callback (readers of different databases never block each other).
type Store struct {
	dir    string
	walOpt *wal.Options
	segPol *segment.Policy

	mu     sync.RWMutex
	oems   map[string]*oem.Database
	doems  map[string]*doem.Database // in-memory stores only
	stores map[string]*segment.Store // stores with a directory only

	// locks holds one RWMutex per DOEM name, coordinating ViewDOEM readers
	// with ApplySet's in-place mutation without serializing reads of
	// unrelated databases behind the store-wide mu.
	lkMu  sync.Mutex
	locks map[string]*sync.RWMutex
}

// ErrNotFound reports a missing database name.
var ErrNotFound = errors.New("lore: database not found")

const (
	oemExt = ".oem.json"
	// doemExt is the JSON file in which earlier versions of the store kept
	// a DOEM database; Open refuses a directory holding one.
	doemExt = ".doem.json"
	segExt  = ".doemseg"
)

// Open loads a store from dir, creating the directory if needed. An empty
// dir yields an in-memory store. It is OpenSegmented(dir, nil, nil).
func Open(dir string) (*Store, error) { return OpenSegmented(dir, nil, nil) }

// OpenSegmented loads a store whose DOEM databases each live in a
// <name>.doemseg segment store holding sealed segments plus an
// active-segment WAL tail. opt may be nil for default log options; pol
// controls automatic sealing, and nil seals only on explicit Checkpoint
// calls. A <name>.doem.json file, the layout of earlier versions, is no
// longer read: Open refuses it. An empty dir yields an in-memory store.
func OpenSegmented(dir string, opt *wal.Options, pol *segment.Policy) (*Store, error) {
	start, wallStart := obs.Now(), time.Now()
	s := &Store{
		dir:    dir,
		walOpt: opt,
		segPol: pol,
		oems:   make(map[string]*oem.Database),
		doems:  make(map[string]*doem.Database),
		stores: make(map[string]*segment.Store),
		locks:  make(map[string]*sync.RWMutex),
	}
	if dir == "" {
		return s, nil
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
		case strings.HasSuffix(name, oemExt):
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("lore: %w", err)
			}
			db, err := oemio.Unmarshal(data)
			if err != nil {
				s.Close()
				return nil, fmt.Errorf("lore: loading %s: %w", name, err)
			}
			s.oems[strings.TrimSuffix(name, oemExt)] = db
		case strings.HasSuffix(name, doemExt):
			s.Close()
			return nil, fmt.Errorf("lore: %s is a DOEM database in the JSON layout of an older version, which is no longer read; move it out of %s",
				filepath.Join(dir, name), dir)
		}
	}
	mReplayNs.ObserveSince(start)
	mReplayRecords.Add(int64(replayed))
	log.Printf("lore: opened %s: %d DOEM database(s), replayed %d log record(s) in %s",
		dir, len(s.stores), replayed, time.Since(wallStart).Round(time.Microsecond))
	return s, nil
}

// PutOEM stores (and persists) an OEM database under name.
func (s *Store) PutOEM(name string, db *oem.Database) error {
	if err := validName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.oems[name] = db
	if s.dir == "" {
		return nil
	}
	data, err := oemio.Marshal(db)
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(s.dir, name+oemExt), data)
}

// GetOEM retrieves an OEM database by name.
func (s *Store) GetOEM(name string) (*oem.Database, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	db, ok := s.oems[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return db, nil
}

// PutDOEM stores (and persists) a DOEM database under name, replacing any
// database of that name. A store with a directory starts a fresh segment
// store whose checkpoint is d and keeps its own copy of d, so later changes
// to d reach the store only through another PutDOEM; deltas should go
// through ApplySet. An in-memory store keeps d itself.
func (s *Store) PutDOEM(name string, d *doem.Database) error {
	if err := validName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" {
		s.doems[name] = d
		return nil
	}
	if old, ok := s.stores[name]; ok {
		old.Close()
		delete(s.stores, name)
	}
	segDir := filepath.Join(s.dir, name+segExt)
	if err := os.RemoveAll(segDir); err != nil {
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

// ViewDOEM runs fn with read access to the named DOEM database, holding
// off ApplySet mutations of that database (and only that database) until
// fn returns. Any number of ViewDOEM readers run concurrently; use this
// for queries that may race with a writer. fn must not retain the
// database past its return. For a segment store the database is the
// active segment; ViewIndexed reads the whole history.
func (s *Store) ViewDOEM(name string, fn func(*doem.Database) error) error {
	d, err := s.GetDOEM(name)
	if err != nil {
		return err
	}
	lk := s.lockFor(name)
	lk.RLock()
	defer lk.RUnlock()
	return fn(d)
}

// ViewIndexed is the query-path analogue of ViewDOEM: it runs fn with the
// database's read lock held, passing the whole history as a query graph —
// the segment store's merged graph (sealed-segment indexes plus the active
// segment) or, in memory, the database itself.
func (s *Store) ViewIndexed(name string, fn func(lorel.Graph) error) error {
	s.mu.RLock()
	var g lorel.Graph
	if st, ok := s.stores[name]; ok {
		g = st.Graph()
	} else if d, ok := s.doems[name]; ok {
		g = d
	}
	s.mu.RUnlock()
	if g == nil {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	lk := s.lockFor(name)
	lk.RLock()
	defer lk.RUnlock()
	return fn(g)
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
	st, onDisk := s.stores[name]
	d, inMemory := s.doems[name]
	if !onDisk && !inMemory {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// The in-place mutation excludes ViewDOEM readers of this database.
	// Lock order is always store mu → name lock; ViewDOEM readers hold
	// only the name lock (GetDOEM's RLock is released before they block),
	// so the two locks cannot deadlock.
	lk := s.lockFor(name)
	lk.Lock()
	defer lk.Unlock()
	if onDisk {
		return st.Apply(t, ops)
	}
	return d.Apply(t, ops)
}

// Checkpoint seals the named database's active segment: its interval
// becomes an immutable sealed segment and a fresh active segment takes
// over (Section 6.1 log compaction). It does nothing in memory.
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
	st, onDisk := s.stores[name]
	if _, inMemory := s.doems[name]; !onDisk && !inMemory {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if !onDisk {
		return nil
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

// SegmentStore returns the segment store backing the named DOEM database;
// every DOEM database of a store with a directory has one.
func (s *Store) SegmentStore(name string) (*segment.Store, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.stores[name]
	return st, ok
}

// MaxID returns the highest node id ever used by the named DOEM database —
// across sealed history for a segment store, where the live database's own
// MaxID only covers the active segment.
func (s *Store) MaxID(name string) (oem.NodeID, error) {
	if st, ok := s.SegmentStore(name); ok {
		return st.MaxID(), nil
	}
	d, err := s.GetDOEM(name)
	if err != nil {
		return 0, err
	}
	return d.MaxID(), nil
}

// GetDOEM retrieves a DOEM database by name: for a segment store, its
// active segment (the current snapshot plus the annotations recorded
// since the last seal).
func (s *Store) GetDOEM(name string) (*doem.Database, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if st, ok := s.stores[name]; ok {
		return st.Active(), nil
	}
	d, ok := s.doems[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return d, nil
}

// Delete removes a database (either kind) and its files.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, hadOEM := s.oems[name]
	st, hadStore := s.stores[name]
	_, hadDOEM := s.doems[name]
	if !hadOEM && !hadStore && !hadDOEM {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(s.oems, name)
	delete(s.doems, name)
	if hadStore {
		st.Close()
		delete(s.stores, name)
	}
	if s.dir == "" {
		return nil
	}
	if err := os.Remove(filepath.Join(s.dir, name+oemExt)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("lore: %w", err)
	}
	if err := os.RemoveAll(filepath.Join(s.dir, name+segExt)); err != nil {
		return fmt.Errorf("lore: %w", err)
	}
	return nil
}

// List returns all database names, sorted, with their kind ("oem"/"doem").
func (s *Store) List() []Entry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []Entry
	for n := range s.oems {
		out = append(out, Entry{Name: n, Kind: "oem"})
	}
	for n := range s.doems {
		out = append(out, Entry{Name: n, Kind: "doem"})
	}
	for n := range s.stores {
		out = append(out, Entry{Name: n, Kind: "doem"})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Entry describes one stored database.
type Entry struct {
	Name string
	Kind string
}

func validName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("lore: invalid database name %q", name)
	}
	return nil
}

// atomicWrite writes data to path via a temporary file, fsync, atomic
// rename, and a directory fsync, so a crash never leaves a torn file and
// the rename itself is durable.
func atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("lore: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("lore: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("lore: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("lore: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("lore: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		// Directory fsync is advisory on some filesystems; best effort.
		dir.Sync()
		dir.Close()
	}
	return nil
}
