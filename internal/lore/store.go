// Package lore is a small storage manager standing in for the Lore DBMS the
// paper builds on: it keeps named OEM and DOEM databases, persists them
// atomically to a directory, and maintains the secondary indexes the paper
// proposes as future work (label, value, and annotation indexes) for the
// index-ablation experiment.
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
	"repro/internal/index"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/oemio"
	"repro/internal/segment"
	"repro/internal/timestamp"
	"repro/internal/wal"
)

// Store manages named databases under a directory. The in-memory databases
// are authoritative; Put persists, Open loads everything found on disk.
// A Store with an empty directory is purely in-memory.
//
// A store opened with OpenWAL persists DOEM databases through per-database
// write-ahead logs instead of JSON snapshots: ApplySet appends only the
// delta, and Checkpoint folds the log back into a snapshot.
//
// Concurrency: Store methods are safe to call concurrently. The pointer
// GetDOEM returns is the live database, which ApplySet mutates in place —
// callers that query while another goroutine applies change sets must read
// through ViewDOEM, which excludes mutation for the duration of the
// callback (readers of different databases never block each other).
type Store struct {
	dir    string
	walOpt *wal.Options    // non-nil: DOEMs are WAL-backed
	segPol *segment.Policy // segmented mode's seal policy (may be nil)
	seg    bool            // segmented mode: new DOEMs go to segment stores

	mu     sync.RWMutex
	oems   map[string]*oem.Database
	doems  map[string]*doem.Database
	logs   map[string]*wal.Log       // open logs, WAL mode only
	stores map[string]*segment.Store // open segment stores, segmented mode only

	// locks holds one RWMutex per DOEM name, coordinating ViewDOEM readers
	// with ApplySet's in-place mutation without serializing reads of
	// unrelated databases behind the store-wide mu.
	lkMu  sync.Mutex
	locks map[string]*sync.RWMutex

	// indexes caches one secondary-index wrapper per DOEM name, created
	// lazily by IndexedDOEM, advanced by ApplySet and dropped when the
	// database is replaced or deleted.
	idxMu   sync.Mutex
	indexes map[string]*index.Graph
}

// ErrNotFound reports a missing database name.
var ErrNotFound = errors.New("lore: database not found")

const (
	oemExt  = ".oem.json"
	doemExt = ".doem.json"
	walExt  = ".doemwal"
	segExt  = ".doemseg"
)

// Open loads a store from dir, creating the directory if needed. An empty
// dir yields an in-memory store.
func Open(dir string) (*Store, error) {
	return open(dir, nil, false, nil)
}

// OpenWAL loads a store whose DOEM databases are WAL-backed: each lives in
// a <name>.doemwal directory holding a checkpoint snapshot plus log
// segments, and loading replays the log tail on top of the checkpoint.
// opt may be nil for default log options. WAL mode requires a directory.
func OpenWAL(dir string, opt *wal.Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("lore: WAL mode requires a directory")
	}
	if opt == nil {
		opt = &wal.Options{}
	}
	return open(dir, opt, false, nil)
}

// OpenSegmented loads a store whose DOEM databases are backed by
// time-partitioned segment stores (internal/segment): each lives in a
// <name>.doemseg directory holding sealed segments plus an active-segment
// WAL tail, and Checkpoint seals the active segment instead of rewriting a
// snapshot. pol controls automatic sealing; nil seals only on explicit
// Checkpoint calls. Pre-existing <name>.doemwal databases keep working
// through their logs.
func OpenSegmented(dir string, opt *wal.Options, pol *segment.Policy) (*Store, error) {
	if dir == "" {
		return nil, errors.New("lore: segmented mode requires a directory")
	}
	if opt == nil {
		opt = &wal.Options{}
	}
	return open(dir, opt, true, pol)
}

func open(dir string, walOpt *wal.Options, segmented bool, pol *segment.Policy) (*Store, error) {
	start, wallStart := obs.Now(), time.Now()
	s := &Store{
		dir:    dir,
		walOpt: walOpt,
		segPol: pol,
		seg:    segmented,
		oems:   make(map[string]*oem.Database),
		doems:  make(map[string]*doem.Database),
		logs:   make(map[string]*wal.Log),
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
		case ent.IsDir() && strings.HasSuffix(name, walExt):
			if walOpt == nil {
				// A snapshot-mode store ignores WAL directories rather than
				// replaying state it would then persist divergently.
				continue
			}
			base := strings.TrimSuffix(name, walExt)
			l, err := wal.Open(filepath.Join(dir, name), walOpt)
			if err != nil {
				return nil, fmt.Errorf("lore: opening log %s: %w", name, err)
			}
			d, records, err := l.ReplayDOEMCounted()
			if err != nil {
				l.Close()
				return nil, fmt.Errorf("lore: replaying %s: %w", name, err)
			}
			replayed += records
			s.doems[base] = d
			s.logs[base] = l
		case ent.IsDir() && strings.HasSuffix(name, segExt):
			if !segmented {
				// Like WAL directories in snapshot mode: don't replay state
				// this store would then persist divergently.
				continue
			}
			base := strings.TrimSuffix(name, segExt)
			st, err := segment.Open(filepath.Join(dir, name), walOpt, pol)
			if err != nil {
				return nil, fmt.Errorf("lore: opening segments %s: %w", name, err)
			}
			replayed += st.Stats().Records
			s.doems[base] = st.Active()
			s.stores[base] = st
		case ent.IsDir():
			continue
		case strings.HasSuffix(name, oemExt):
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return nil, fmt.Errorf("lore: %w", err)
			}
			db, err := oemio.Unmarshal(data)
			if err != nil {
				return nil, fmt.Errorf("lore: loading %s: %w", name, err)
			}
			s.oems[strings.TrimSuffix(name, oemExt)] = db
		case strings.HasSuffix(name, doemExt):
			base := strings.TrimSuffix(name, doemExt)
			if _, ok := s.doems[base]; ok {
				continue // a WAL directory for this name takes precedence
			}
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				return nil, fmt.Errorf("lore: %w", err)
			}
			d, err := doem.Unmarshal(data)
			if err != nil {
				return nil, fmt.Errorf("lore: loading %s: %w", name, err)
			}
			s.doems[base] = d
		}
	}
	if walOpt != nil {
		mReplayNs.ObserveSince(start)
		mReplayRecords.Add(int64(replayed))
		mode := "wal"
		if segmented {
			mode = "segmented"
		}
		log.Printf("lore: opened %s (%s): %d DOEM database(s), replayed %d log record(s) in %s",
			dir, mode, len(s.doems), replayed, time.Since(wallStart).Round(time.Microsecond))
	}
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

// PutDOEM stores (and persists) a DOEM database under name. In WAL mode
// this starts a fresh log whose checkpoint is the full database; later
// deltas should go through ApplySet.
func (s *Store) PutDOEM(name string, d *doem.Database) error {
	if err := validName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dropIndex(name)
	if s.seg {
		if old, ok := s.stores[name]; ok {
			old.Close()
			delete(s.stores, name)
		}
		if old, ok := s.logs[name]; ok {
			// Replacing a database that predates segmented mode.
			old.Close()
			delete(s.logs, name)
		}
		segDir := filepath.Join(s.dir, name+segExt)
		for _, stale := range []string{segDir, filepath.Join(s.dir, name+walExt)} {
			if err := os.RemoveAll(stale); err != nil {
				return fmt.Errorf("lore: %w", err)
			}
		}
		st, err := segment.Create(segDir, d, s.walOpt, s.segPol)
		if err != nil {
			return fmt.Errorf("lore: %w", err)
		}
		// Drop any stale snapshot from a pre-segment run of the same store.
		if err := os.Remove(filepath.Join(s.dir, name+doemExt)); err != nil && !os.IsNotExist(err) {
			st.Close()
			return fmt.Errorf("lore: %w", err)
		}
		s.doems[name] = st.Active()
		s.stores[name] = st
		return nil
	}
	if s.walOpt != nil {
		if old, ok := s.logs[name]; ok {
			old.Close()
			delete(s.logs, name)
		}
		walDir := filepath.Join(s.dir, name+walExt)
		if err := os.RemoveAll(walDir); err != nil {
			return fmt.Errorf("lore: %w", err)
		}
		l, err := wal.Open(walDir, s.walOpt)
		if err != nil {
			return fmt.Errorf("lore: %w", err)
		}
		if err := l.CheckpointDOEM(d); err != nil {
			l.Close()
			return fmt.Errorf("lore: %w", err)
		}
		// Drop any stale snapshot from a pre-WAL run of the same store.
		if err := os.Remove(filepath.Join(s.dir, name+doemExt)); err != nil && !os.IsNotExist(err) {
			l.Close()
			return fmt.Errorf("lore: %w", err)
		}
		s.doems[name] = d
		s.logs[name] = l
		return nil
	}
	s.doems[name] = d
	if s.dir == "" {
		return nil
	}
	data, err := d.Marshal()
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(s.dir, name+doemExt), data)
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
// database past its return.
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

// ApplySet applies one timestamped change set to the named DOEM database
// and persists the result. In WAL mode only the delta is appended —
// O(|ops|) I/O; in snapshot mode the whole database is rewritten.
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
	d, ok := s.doems[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	// The in-place mutation excludes ViewDOEM readers of this database.
	// Lock order is always store mu → name lock; ViewDOEM readers hold
	// only the name lock (GetDOEM's RLock is released before they block),
	// so the two locks cannot deadlock.
	lk := s.lockFor(name)
	if st, ok := s.stores[name]; ok {
		lk.Lock()
		err := st.Apply(t, ops)
		// A policy-triggered seal swaps in a fresh active segment; keep the
		// live pointer current for GetDOEM/ViewDOEM callers. The index
		// wrapper (if any) belongs to the old one and is forgotten.
		if ad := st.Active(); ad != d {
			s.doems[name] = ad
			s.dropIndex(name)
		} else if err == nil {
			s.advanceIndex(name, t, ops)
		}
		lk.Unlock()
		return err
	}
	lk.Lock()
	err := d.Apply(t, ops)
	if err == nil {
		s.advanceIndex(name, t, ops)
	}
	lk.Unlock()
	if err != nil {
		return err
	}
	if l, ok := s.logs[name]; ok {
		if _, err := l.AppendStep(t, ops); err != nil {
			return fmt.Errorf("lore: %w", err)
		}
		return nil
	}
	if s.dir == "" {
		return nil
	}
	data, err := d.Marshal()
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(s.dir, name+doemExt), data)
}

// Checkpoint folds the named database's log into a fresh snapshot and
// drops the covered segments (Section 6.1 log compaction). In snapshot
// mode it simply re-persists the database; in segmented mode it seals the
// active segment.
//
// Checkpoint and ApplySet both hold the store-wide mutex for their full
// duration, which is what satisfies wal.CheckpointDOEM's requirement that
// no append lands between marshaling the database and installing the
// checkpoint — the pair can interleave freely across goroutines but never
// overlap.
func (s *Store) Checkpoint(name string) error {
	start := obs.Now()
	defer func() {
		mCheckpoints.Inc()
		mCheckpointNs.ObserveSince(start)
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.doems[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if st, ok := s.stores[name]; ok {
		// In segmented mode a checkpoint IS a seal: the active segment's
		// interval becomes an immutable sealed segment and a fresh active
		// segment takes over.
		lk := s.lockFor(name)
		lk.Lock()
		err := st.Seal()
		s.doems[name] = st.Active()
		lk.Unlock()
		return err
	}
	if l, ok := s.logs[name]; ok {
		return l.CheckpointDOEM(d)
	}
	if s.dir == "" {
		return nil
	}
	data, err := d.Marshal()
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(s.dir, name+doemExt), data)
}

// Close releases any open logs and segment stores. The store must not be
// used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for name, l := range s.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.logs, name)
	}
	for name, st := range s.stores {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.stores, name)
	}
	return first
}

// SegmentStore returns the segment store backing the named DOEM database,
// when the store is segmented and the database is segment-backed.
func (s *Store) SegmentStore(name string) (*segment.Store, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, ok := s.stores[name]
	return st, ok
}

// Segmented reports whether new DOEM databases are stored segmented.
func (s *Store) Segmented() bool { return s.seg }

// MaxID returns the highest node id ever used by the named DOEM database —
// across sealed history in segmented mode, where the live database's own
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

// GetDOEM retrieves a DOEM database by name.
func (s *Store) GetDOEM(name string) (*doem.Database, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.doems[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return d, nil
}

// IndexedDOEM returns the store's secondary-index wrapper (internal/index)
// for the named DOEM database, creating it on first use. The wrapper is
// shared between callers; ApplySet advances it by every change set.
// Read through it under the database's read lock (ViewIndexed) whenever
// writers may be active.
func (s *Store) IndexedDOEM(name string) (*index.Graph, error) {
	d, err := s.GetDOEM(name)
	if err != nil {
		return nil, err
	}
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	if s.indexes == nil {
		s.indexes = make(map[string]*index.Graph)
	}
	if ig, ok := s.indexes[name]; ok && ig.DOEM() == d {
		return ig, nil
	}
	ig := index.NewGraph(d)
	s.indexes[name] = ig
	return ig, nil
}

// ViewIndexed is the query-path analogue of ViewDOEM: it runs fn with the
// database's read lock held, passing the indexed view.
func (s *Store) ViewIndexed(name string, fn func(lorel.Graph) error) error {
	if st, ok := s.SegmentStore(name); ok {
		// Segmented databases answer history queries through the store's
		// merged graph (sealed-segment indexes + active segment) rather than
		// the monolithic secondary indexes.
		lk := s.lockFor(name)
		lk.RLock()
		defer lk.RUnlock()
		return fn(st.Graph())
	}
	ig, err := s.IndexedDOEM(name)
	if err != nil {
		return err
	}
	lk := s.lockFor(name)
	lk.RLock()
	defer lk.RUnlock()
	return fn(ig)
}

// advanceIndex folds a change set just applied to the named database into
// its cached index structures, if any. The caller holds the database's
// write lock.
func (s *Store) advanceIndex(name string, t timestamp.Time, ops change.Set) {
	s.idxMu.Lock()
	if ig, ok := s.indexes[name]; ok {
		ig.Advance(t, ops)
	}
	s.idxMu.Unlock()
}

// dropIndex forgets the index wrapper entirely (database replaced or
// deleted).
func (s *Store) dropIndex(name string) {
	s.idxMu.Lock()
	delete(s.indexes, name)
	s.idxMu.Unlock()
}

// Delete removes a database (either kind) and its files.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, hadOEM := s.oems[name]
	_, hadDOEM := s.doems[name]
	if !hadOEM && !hadDOEM {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(s.oems, name)
	delete(s.doems, name)
	s.dropIndex(name)
	if l, ok := s.logs[name]; ok {
		l.Close()
		delete(s.logs, name)
	}
	if st, ok := s.stores[name]; ok {
		st.Close()
		delete(s.stores, name)
	}
	if s.dir == "" {
		return nil
	}
	for _, ext := range []string{oemExt, doemExt} {
		path := filepath.Join(s.dir, name+ext)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("lore: %w", err)
		}
	}
	for _, ext := range []string{walExt, segExt} {
		if err := os.RemoveAll(filepath.Join(s.dir, name+ext)); err != nil {
			return fmt.Errorf("lore: %w", err)
		}
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
