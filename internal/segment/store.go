// Package segment implements time-partitioned storage for DOEM change
// histories: a mutable active segment (an in-memory DOEM database backed by
// a write-ahead-log tail) plus a sequence of sealed segments — immutable,
// time-bounded files each holding a checkpointed snapshot at its seal
// boundary, the encoded change sets of its interval, and a persistent
// annotation index. Queries select segments by their time bounds, so a
// historical query opens only the segment(s) it overlaps and restart
// recovery replays only the active tail; this is the paper's Section 6.1
// space-for-time trade applied per interval instead of to the whole
// history.
package segment

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/plan"
	"repro/internal/symbol"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wal"
)

// Policy controls when the active segment seals and how many sealed
// segment indexes stay parsed in RAM. The zero value seals only on explicit
// Seal calls and keeps every loaded index.
type Policy struct {
	// SealAnnotations seals the active segment once it has accumulated at
	// least this many annotations (0 = no count-based sealing).
	SealAnnotations int
	// SealAge seals the active segment once its recorded history spans more
	// than this much history time (0 = no age-based sealing). Age is
	// measured on history timestamps, not wall-clock time, so replayed and
	// simulated histories seal deterministically.
	SealAge time.Duration
	// MaxHot bounds how many parsed segment indexes stay in RAM; the least
	// recently used beyond the bound are released (0 = unlimited).
	MaxHot int
}

// OpenStats describes what Open had to replay to recover the active
// segment — the restart cost the sealed tiers bound.
type OpenStats struct {
	Records  int           // WAL records replayed
	Segments int           // sealed segments found (not replayed)
	Duration time.Duration // total open time, including recovery
}

// handle is the in-memory descriptor of one sealed segment. upd holds the
// ids of the nodes its index has upd chains for, ascending, and first the
// old value of each one's first upd in the segment, so a value read finds
// what the segments after the one it covers hold without loading their
// indexes. The parsed index is loaded lazily and may be released
// (Policy.MaxHot); idx and lastUse are guarded by Store.tierMu because
// queries load indexes while holding only the store's reader-side lock.
type handle struct {
	id         int
	start, end timestamp.Time
	upd        []oem.NodeID
	first      []value.Value
	idx        *segIndex
	lastUse    uint64
}

// firstOld returns the old value of n's first upd in the segment, and
// whether the segment updates n at all.
func (h *handle) firstOld(n oem.NodeID) (value.Value, bool) {
	i, ok := slices.BinarySearch(h.upd, n)
	if !ok {
		return value.Value{}, false
	}
	return h.first[i], true
}

// Store is one history's segmented storage. Mutators (Apply, Seal,
// Truncate, Close) follow the same contract as *doem.Database: they must
// exclude concurrent readers of the store's Graph and of Replay (lore.Store
// does this with per-name reader/writer locks). The read path is safe for
// any number of concurrent readers; its internal index cache has its own
// lock.
type Store struct {
	dir string
	pol Policy

	tail   *wal.Log
	active *doem.Database
	// lastSeal is the boundary of the newest sealed segment (NegInf when
	// none): the active segment covers (lastSeal, +inf).
	lastSeal timestamp.Time

	// summary is sealed history's contribution, as of the last committed
	// checkpoint plus the registry arcs and ids the active segment added
	// since. member is the registry's membership set.
	summary
	member map[oem.Arc]bool

	segs []*handle

	// activeAnnots counts the active segment's annotations (one per
	// applied operation); firstActive is its earliest step, for SealAge.
	activeAnnots int
	firstActive  timestamp.Time

	// ticks counts graph operations; MaxHot releases the indexes whose
	// last use is oldest in ticks. tierMu guards handle index loading and
	// release on the read path.
	ticks  atomic.Uint64
	tierMu sync.Mutex

	// statsC holds the planner-statistics summary (see stats.go).
	statsC statsCache

	stats OpenStats
}

const tailDirName = "wal"

var segFileRe = regexp.MustCompile(`^seg-(\d{6})\.(seg|idx)$`)

// Create initializes a fresh segmented store in dir, seeded with d (which
// may already carry history). The active segment is the store's own copy
// of d, so later changes to d do not reach the store. dir must not already
// hold a store. opt may be nil for default log options; pol may be nil for
// the zero policy.
func Create(dir string, d *doem.Database, opt *wal.Options, pol *Policy) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, tailDirName)); err == nil {
		return nil, fmt.Errorf("segment: %s already holds a store", dir)
	}
	l, err := wal.Open(filepath.Join(dir, tailDirName), opt)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	s := newStore(dir, pol)
	s.tail = l
	if err := s.commit(nil, summary{maxID: d.MaxID()}, d); err != nil {
		l.Close()
		return nil, err
	}
	s.adoptActive(d.Clone())
	s.seedRegistryFromActive()
	s.updateGauges()
	return s, nil
}

// Open loads (or creates) the segmented store in dir. The tail checkpoint
// is the store's one commit point: Open decodes it, removes the segment
// files of seals it does not count (a crash cut them short), requires
// every segment it counts, and replays the tail records after it — it
// reads no segment file and never replays sealed history. A directory in
// the layout of an older version is refused with nothing changed.
func Open(dir string, opt *wal.Options, pol *Policy) (*Store, error) {
	begin := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	// Earlier versions kept the sealed summary in a STATE file beside the
	// segments; such a directory is refused, not read.
	state := filepath.Join(dir, "STATE")
	if _, err := os.Stat(state); err == nil {
		return nil, fmt.Errorf("segment: %s is the summary file of an older version's layout, which is no longer read", state)
	}
	l, err := wal.Open(filepath.Join(dir, tailDirName), opt)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	s := newStore(dir, pol)
	s.tail = l
	records, err := s.recover()
	if err != nil {
		l.Close()
		return nil, err
	}
	s.stats = OpenStats{Records: records, Segments: len(s.segs), Duration: time.Since(begin)}
	mOpenNs.Observe(int64(s.stats.Duration))
	s.updateGauges()
	return s, nil
}

// recover installs the committed state of the tail checkpoint, makes the
// directory's segment files match it, and replays the tail records.
func (s *Store) recover() (int, error) {
	d := doem.New(oem.New())
	payload, _, ok, err := s.tail.LastCheckpoint()
	if err != nil {
		return 0, fmt.Errorf("segment: %w", err)
	}
	if ok {
		if !bytes.HasPrefix(payload, ckptMagic) {
			return 0, fmt.Errorf("segment: the checkpoint in %s is in the layout of an older version, which is no longer read", s.tail.Dir())
		}
		c, err := decodeCheckpoint(payload)
		if err != nil {
			return 0, fmt.Errorf("segment: tail checkpoint in %s: %w", s.tail.Dir(), err)
		}
		s.segs = c.segs
		if len(s.segs) > 0 {
			s.lastSeal = s.segs[len(s.segs)-1].end
		}
		s.summary = c.sum
		for _, arcs := range s.registry {
			for _, a := range arcs {
				s.member[a] = true
			}
		}
		d = c.active
	}
	if err := s.sweep(); err != nil {
		return 0, err
	}
	records := 0
	err = replaySteps(s.tail, func(seq uint64, step change.Step) error {
		if err := d.Apply(step.At, step.Ops); err != nil {
			return fmt.Errorf("segment: replaying tail record %d: %w", seq, err)
		}
		s.mergeOps(step.Ops, nil)
		records++
		return nil
	})
	if err != nil {
		return 0, err
	}
	s.adoptActive(d)
	if len(s.segs) == 0 {
		// Never sealed: the active segment is the whole history and its
		// arc relation is the registry.
		s.seedRegistryFromActive()
	}
	return records, nil
}

// sweep makes the directory's segment files match the committed count: a
// .seg or .idx file numbered beyond it is the leftover of a seal that never
// committed or of a Truncate cut short, and is removed with any temp file;
// a committed .seg that is missing is ErrCorrupt, reported before anything
// is removed. A missing .idx is rebuilt when first needed.
func (s *Store) sweep() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	have := make(map[int]bool)
	var stale []string
	for _, ent := range entries {
		name := ent.Name()
		if filepath.Ext(name) == ".tmp" {
			stale = append(stale, name)
			continue
		}
		m := segFileRe.FindStringSubmatch(name)
		if m == nil {
			continue
		}
		id, _ := strconv.Atoi(m[1])
		if id > len(s.segs) {
			stale = append(stale, name)
		} else if m[2] == "seg" {
			have[id] = true
		}
	}
	for _, h := range s.segs {
		if !have[h.id] {
			return fmt.Errorf("%w: committed segment %s is missing", ErrCorrupt, filepath.Join(s.dir, segFileName(h.id)))
		}
	}
	if err := wal.RemoveEntries(s.dir, stale...); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	return nil
}

func newStore(dir string, pol *Policy) *Store {
	s := &Store{
		dir:      dir,
		lastSeal: timestamp.NegInf,
		summary: summary{
			registry:     make(map[oem.NodeID][]oem.Arc),
			cre:          make(map[oem.NodeID]timestamp.Time),
			dead:         make(map[oem.NodeID]value.Value),
			sealedStatus: make(map[oem.Arc]doem.AnnotKind),
		},
		member: make(map[oem.Arc]bool),
	}
	if pol != nil {
		s.pol = *pol
	}
	return s
}

func (s *Store) adoptActive(d *doem.Database) {
	s.active = d
	s.activeAnnots = d.NumAnnotations()
	s.firstActive = timestamp.PosInf
	if steps := d.Steps(); len(steps) > 0 {
		s.firstActive = steps[0]
	}
	if m := d.MaxID(); m > s.maxID {
		s.maxID = m
	}
}

// seedRegistryFromActive initializes the registry from the active
// segment's full arc relation — valid only while nothing has been sealed,
// when the active OutAll order is the monolithic order.
func (s *Store) seedRegistryFromActive() {
	s.registry = make(map[oem.NodeID][]oem.Arc)
	s.member = make(map[oem.Arc]bool)
	for _, n := range s.active.AllNodeIDs() {
		arcs := s.active.OutAll(n)
		if len(arcs) == 0 {
			continue
		}
		s.registry[n] = append([]oem.Arc(nil), arcs...)
		for _, a := range arcs {
			s.member[a] = true
		}
	}
}

// mergeOps folds one applied change set into the store-level summaries:
// new arcs append to the registry in canonical application order (the
// order doem.Apply appends them to OutAll), created ids raise the
// high-water mark. Call only after the set was applied successfully.
// labels, when non-nil, are the registry counts to advance by its growth.
func (s *Store) mergeOps(ops change.Set, labels map[string]plan.LabelCard) {
	for _, op := range ops.Canonical() {
		switch o := op.(type) {
		case change.AddArc:
			// Canonical labels keep the registry sharing backing strings
			// with the active doem database and the oem snapshots.
			a := oem.Arc{Parent: o.Parent, Label: symbol.Canon(o.Label), Child: o.Child}
			if !s.member[a] {
				s.member[a] = true
				if labels != nil {
					hasLabel := func(x oem.Arc) bool { return x.Label == a.Label }
					first := !slices.ContainsFunc(s.registry[o.Parent], hasLabel)
					addFull(labels, a, first, o.Parent == s.active.Root())
				}
				s.registry[o.Parent] = append(s.registry[o.Parent], a)
			}
		case change.CreNode:
			if o.Node > s.maxID {
				s.maxID = o.Node
			}
		}
	}
}

// The tail log's records are history steps (change.AppendStep); its
// checkpoint is the store's committed state (encodeCheckpoint).

// appendStep appends one history step (t, ops) to l.
func appendStep(l *wal.Log, t timestamp.Time, ops change.Set) error {
	_, err := l.Append(change.AppendStep(nil, change.Step{At: t, Ops: ops}))
	return err
}

// replaySteps calls fn for every step l recorded after its checkpoint, in
// order.
func replaySteps(l *wal.Log, fn func(seq uint64, step change.Step) error) error {
	return l.Replay(func(seq uint64, payload []byte) error {
		step, n, err := change.DecodeStep(payload)
		if err == nil && n != len(payload) {
			err = fmt.Errorf("%d trailing bytes", len(payload)-n)
		}
		if err != nil {
			return fmt.Errorf("segment: tail record %d: %w", seq, err)
		}
		return fn(seq, step)
	})
}

// commit installs the tail checkpoint that makes (segs, sum, d) the
// store's committed state, covering every record appended so far. The
// caller excludes writers of d and the tail for the whole call (the
// single-writer rule). A failed checkpoint write leaves the state on disk
// unknown — the rename may or may not have landed — so the store fails
// stop: the tail closes, later writes fail, and a reopen recovers whichever
// state committed.
func (s *Store) commit(segs []*handle, sum summary, d *doem.Database) error {
	payload := encodeCheckpoint(&checkpoint{segs: segs, sum: sum, active: d})
	if err := s.tail.Checkpoint(payload, s.tail.LastSeq()); err != nil {
		s.tail.Close()
		return fmt.Errorf("segment: %w", err)
	}
	return nil
}

// Apply extends the history by one timestamped change set, write-ahead: it
// checks the set against the active segment, appends it to the tail log,
// and only then commits it to the active segment, sealing when the policy
// says so. A refused append leaves the active segment unchanged and closes
// the tail, so later calls fail instead of appending past a record that
// may or may not be on disk; reopening the store recovers what is durable.
func (s *Store) Apply(t timestamp.Time, ops change.Set) error {
	// The active segment starts empty after a seal, so doem's own
	// monotonicity check cannot see sealed history; enforce it here so the
	// invariant "every annotation in the active segment is after lastSeal"
	// holds (segment selection depends on it).
	if !t.After(s.lastSeal) {
		return fmt.Errorf("segment: step at %s is not after the seal boundary %s", t, s.lastSeal)
	}
	if err := s.active.Check(t, ops); err != nil {
		return err
	}
	if err := appendStep(s.tail, t, ops); err != nil {
		s.tail.Close()
		return fmt.Errorf("segment: %w", err)
	}
	s.active.Commit(t, ops)
	s.statsC.mu.Lock()
	s.mergeOps(ops, s.statsC.labels)
	s.statsC.mu.Unlock()
	s.activeAnnots += len(ops)
	if s.firstActive.Equal(timestamp.PosInf) {
		s.firstActive = t
	}
	if s.shouldSeal(t) {
		if err := s.seal(); err != nil {
			return err
		}
	}
	s.maintain()
	s.updateGauges()
	return nil
}

func (s *Store) shouldSeal(t timestamp.Time) bool {
	if s.pol.SealAnnotations > 0 && s.activeAnnots >= s.pol.SealAnnotations {
		return true
	}
	if s.pol.SealAge > 0 && s.firstActive.IsFinite() && t.IsFinite() &&
		t.Sub(s.firstActive) >= s.pol.SealAge {
		return true
	}
	return false
}

// Seal closes the active segment at its last step: its interval becomes an
// immutable sealed segment (ground truth + index on disk), the store
// summary absorbs its annotations, and a fresh active segment starts at the
// boundary — all committed by one tail checkpoint. Sealing with no recorded
// steps is a no-op.
func (s *Store) Seal() error {
	if !s.active.LastStep().After(s.lastSeal) {
		return nil
	}
	if err := s.seal(); err != nil {
		return err
	}
	s.maintain()
	s.updateGauges()
	return nil
}

// seal writes the segment's .seg and .idx files, then the tail checkpoint
// that counts them; memory moves to the sealed state only once that
// checkpoint lands. A crash before it leaves files beyond the committed
// count, which Open removes: the tail still holds the interval's steps, and
// the next seal writes the same bytes again.
func (s *Store) seal() error {
	start := obs.Now()
	bound := s.active.LastStep()
	id := len(s.segs) + 1
	sd := &segData{
		id:    id,
		start: s.lastSeal,
		end:   bound,
		base:  s.active.Original(),
		steps: s.active.ExtractHistory(),
	}
	sd.orphans = s.orphanArcs(sd.base)
	idx := buildIndex(s.active, sd.base, sd.orphans)

	if err := wal.AtomicWrite(filepath.Join(s.dir, segFileName(id)), encodeSegData(sd)); err != nil {
		return err
	}
	if err := wal.AtomicWrite(filepath.Join(s.dir, idxFileName(id)), encodeSegIndex(id, sd.start, bound, idx)); err != nil {
		return err
	}

	// The summary after the seal absorbs the active segment's annotations;
	// the registry already holds its arcs.
	next := summary{
		registry:     s.registry,
		cre:          maps.Clone(s.cre),
		dead:         maps.Clone(s.dead),
		sealedStatus: maps.Clone(s.sealedStatus),
		maxID:        s.MaxID(),
	}
	for _, n := range s.active.AllNodeIDs() {
		if t, ok := s.active.CreTime(n); ok {
			next.cre[n] = t
		}
		if _, ok := s.active.Current().Value(n); !ok {
			if v, ok := s.active.Value(n); ok {
				next.dead[n] = v
			}
		}
		for _, arc := range s.active.OutAll(n) {
			if chain := s.active.ArcAnnots(arc); len(chain) > 0 {
				next.sealedStatus[arc] = chain[len(chain)-1].Kind
			}
		}
	}
	h := &handle{id: id, start: sd.start, end: bound, upd: idx.upd.keys, idx: idx, lastUse: s.ticks.Load()}
	h.first = make([]value.Value, len(h.upd))
	for i := range h.upd {
		h.first[i] = idx.upd.chain(i)[0].Old
	}
	segs := append(slices.Clip(s.segs), h)
	fresh := doem.New(s.active.Current())
	if err := s.commit(segs, next, fresh); err != nil {
		return err
	}
	s.summary = next
	s.lastSeal = bound
	s.segs = segs
	s.adoptActive(fresh)
	mSeals.Inc()
	mSealNs.ObserveSince(start)
	return nil
}

// orphanArcs returns the arcs frozen live at the seal boundary by node
// garbage collection: their most recent annotation anywhere is an add, yet
// the boundary snapshot omits them because GC removed a deleted endpoint.
// The monolithic ArcLiveAt keeps such an arc live at every later instant,
// so the segment being sealed must carry it in its live-at-start set.
func (s *Store) orphanArcs(base *oem.Database) []oem.Arc {
	var orphans []oem.Arc
	for a, kind := range s.sealedStatus {
		if kind != doem.AnnotAdd || base.HasArc(a.Parent, a.Label, a.Child) {
			continue
		}
		orphans = append(orphans, a)
	}
	sortArcs(orphans)
	return orphans
}

// buildIndex extracts the sealed interval's annotation index from the
// pre-seal active segment: its upd and arc chains, plus the complete set
// of arcs live at the interval's start (the base snapshot's arcs and the
// orphans frozen live at the boundary).
func buildIndex(d *doem.Database, base *oem.Database, orphans []oem.Arc) *segIndex {
	x := &segIndex{live: slices.Clone(orphans)}
	for _, n := range base.Nodes() {
		x.live = append(x.live, base.Out(n)...)
	}
	sortArcs(x.live)
	x.live = slices.Compact(x.live)
	var arcs []oem.Arc
	var ups []updAnnot
	for _, n := range d.AllNodeIDs() { // ascending
		ups = ups[:0]
		for _, u := range d.UpdTriples(n) {
			ups = append(ups, updAnnot{At: u.At, Old: u.Old})
		}
		if len(ups) > 0 {
			x.upd.add(n, ups)
		}
		for _, arc := range d.OutAll(n) {
			if len(d.ArcAnnots(arc)) > 0 {
				arcs = append(arcs, arc)
			}
		}
	}
	sortArcs(arcs)
	for _, a := range arcs {
		x.arcs.add(a, d.ArcAnnots(a))
	}
	return x
}

// Truncate collapses all history up to and including t into the active
// segment's base snapshot, deleting every sealed segment — the paper's
// full space-for-accuracy trade. t must not fall strictly inside sealed
// history: sealed segments are immutable, so partial truncation below the
// last seal boundary is refused. The checkpoint that commits the truncated
// history counts no segment, so it lands before the segment files go: a
// crash between the two leaves files beyond the count, which Open removes.
func (s *Store) Truncate(t timestamp.Time) error {
	if t.Before(s.lastSeal) {
		return fmt.Errorf("segment: cannot truncate at %s inside sealed history (last seal %s)", t, s.lastSeal)
	}
	// Rebuild exactly as the monolithic database would: the snapshot at t
	// with arcs in global first-insertion (registry) order — the active
	// segment's own order can differ where an arc was removed in a sealed
	// interval and re-added since — plus the steps after t.
	base := s.globalSnapshotAt(t)
	var after change.History
	for _, step := range s.active.ExtractHistory() {
		if step.At.After(t) {
			after = append(after, step)
		}
	}
	td, err := doem.FromHistory(base, after)
	if err != nil {
		return err
	}
	// The id high-water mark survives: ids are never reused.
	if err := s.commit(nil, summary{maxID: s.MaxID()}, td); err != nil {
		return err
	}
	removed := s.segs
	s.segs = nil
	s.lastSeal = timestamp.NegInf
	s.cre = make(map[oem.NodeID]timestamp.Time)
	s.dead = make(map[oem.NodeID]value.Value)
	s.sealedStatus = make(map[oem.Arc]doem.AnnotKind)
	s.adoptActive(td)
	s.seedRegistryFromActive()
	s.dropStats()
	s.updateGauges()
	var names []string
	for _, h := range removed {
		names = append(names, segFileName(h.id), idxFileName(h.id))
	}
	if err := wal.RemoveEntries(s.dir, names...); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	return nil
}

// maintain releases the parsed indexes beyond Policy.MaxHot, least
// recently used first.
func (s *Store) maintain() {
	s.tierMu.Lock()
	defer s.tierMu.Unlock()
	if s.pol.MaxHot > 0 {
		loaded := make([]*handle, 0, len(s.segs))
		for _, h := range s.segs {
			if h.idx != nil {
				loaded = append(loaded, h)
			}
		}
		if len(loaded) > s.pol.MaxHot {
			sort.Slice(loaded, func(i, j int) bool { return loaded[i].lastUse < loaded[j].lastUse })
			for _, h := range loaded[:len(loaded)-s.pol.MaxHot] {
				h.idx = nil
			}
		}
	}
}

// index returns a sealed segment's parsed annotation index, loading it
// from its index file or, when that is missing, damaged or does not match
// the segment the checkpoint counts, rebuilding it from ground truth. Safe
// under concurrent readers.
func (s *Store) index(h *handle) (*segIndex, error) {
	s.tierMu.Lock()
	defer s.tierMu.Unlock()
	h.lastUse = s.ticks.Load()
	if h.idx != nil {
		return h.idx, nil
	}
	start := obs.Now()
	path := filepath.Join(s.dir, idxFileName(h.id))
	if data, err := os.ReadFile(path); err == nil {
		if id, from, to, x, err := decodeSegIndex(data); err == nil && id == h.id && from.Equal(h.start) && to.Equal(h.end) {
			h.idx = x
			mIdxLoads.Inc()
			mIdxLoadNs.ObserveSince(start)
			return x, nil
		}
	}
	sd, err := s.loadSegData(h)
	if err != nil {
		return nil, err
	}
	d, err := doem.FromHistory(sd.base, sd.steps)
	if err != nil {
		return nil, fmt.Errorf("segment: rebuilding index for seg %d: %w", h.id, err)
	}
	x := buildIndex(d, sd.base, sd.orphans)
	// The index is derived: a failed write costs the next load a rebuild,
	// so the rebuilt index is served either way and the failure counted.
	if err := wal.AtomicWrite(path, encodeSegIndex(h.id, h.start, h.end, x)); err != nil {
		mIdxWriteFailures.Inc()
	}
	h.idx = x
	mIdxRebuilds.Inc()
	mIdxLoadNs.ObserveSince(start)
	return x, nil
}

// loadSegData reads and decodes one sealed segment's ground truth, which
// must be the segment the checkpoint counts: the same id and bounds.
func (s *Store) loadSegData(h *handle) (*segData, error) {
	path := filepath.Join(s.dir, segFileName(h.id))
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	sd, err := decodeSegData(raw)
	if err == nil && (sd.id != h.id || !sd.start.Equal(h.start) || !sd.end.Equal(h.end)) {
		err = fmt.Errorf("%w: holds segment %d over (%s, %s], the checkpoint counts segment %d over (%s, %s]",
			ErrCorrupt, sd.id, sd.start, sd.end, h.id, h.start, h.end)
	}
	if err != nil {
		return nil, fmt.Errorf("segment: %s: %w", path, err)
	}
	return sd, nil
}

// Replay rebuilds the whole stored history as one DOEM database — what a
// store that never sealed would hold: the first sealed segment's base
// snapshot with every sealed step and then the active segment's applied
// on top. It reads every sealed segment from disk.
func (s *Store) Replay() (*doem.Database, error) {
	var base *oem.Database
	var h change.History
	for _, seg := range s.segs {
		sd, err := s.loadSegData(seg)
		if err != nil {
			return nil, err
		}
		if base == nil {
			base = sd.base
		}
		h = append(h, sd.steps...)
	}
	if base == nil {
		base = s.active.Original()
	}
	return doem.FromHistory(base, append(h, s.active.ExtractHistory()...))
}

// covering returns the index of the sealed segment whose interval
// (start, end] contains t, or -1 when t falls in the active segment.
func (s *Store) covering(t timestamp.Time) int {
	if t.After(s.lastSeal) {
		return -1
	}
	return sort.Search(len(s.segs), func(i int) bool { return !s.segs[i].end.Before(t) })
}

// segsIn returns the sealed segments whose interval (start, end] meets
// the closed window [from, to], in interval order.
func (s *Store) segsIn(from, to timestamp.Time) []*handle {
	lo := sort.Search(len(s.segs), func(i int) bool { return !s.segs[i].end.Before(from) })
	hi := sort.Search(len(s.segs), func(i int) bool { return !s.segs[i].start.Before(to) })
	return s.segs[lo:max(lo, hi)]
}

func (s *Store) touch() { s.ticks.Add(1) }

// LastStep returns the time of the newest step in the whole history,
// sealed or active (NegInf when there is none).
func (s *Store) LastStep() timestamp.Time {
	if t := s.active.LastStep(); t.After(s.lastSeal) {
		return t
	}
	return s.lastSeal
}

// LastSeal returns the newest seal boundary (NegInf when nothing has been
// sealed).
func (s *Store) LastSeal() timestamp.Time { return s.lastSeal }

// MaxID returns the id high-water mark across the whole history, including
// sealed-away deletions; id allocators must stay above it.
func (s *Store) MaxID() oem.NodeID {
	if m := s.active.MaxID(); m > s.maxID {
		return m
	}
	return s.maxID
}

// Segments returns the sealed segment count.
func (s *Store) Segments() int { return len(s.segs) }

// Stats returns what the last Open had to do.
func (s *Store) Stats() OpenStats { return s.stats }

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Close releases the tail log. The store must not be used afterwards.
func (s *Store) Close() error {
	if s.tail == nil {
		return nil
	}
	err := s.tail.Close()
	s.tail = nil
	return err
}

func (s *Store) updateGauges() {
	gSegments.Set(int64(len(s.segs)))
	gHotSegments.Set(int64(s.hotSegments()))
	gActiveAnnots.Set(int64(s.activeAnnots))
}

// hotSegments counts the sealed segments whose index is parsed in RAM.
func (s *Store) hotSegments() int {
	s.tierMu.Lock()
	defer s.tierMu.Unlock()
	hot := 0
	for _, h := range s.segs {
		if h.idx != nil {
			hot++
		}
	}
	return hot
}
