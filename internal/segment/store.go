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
	"encoding/json"
	"fmt"
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

// handle is the in-memory descriptor of one sealed segment. The parsed
// index is loaded lazily and may be released (Policy.MaxHot); idx and
// lastUse are guarded by Store.tierMu because queries load indexes while
// holding only the store's reader-side lock.
type handle struct {
	id         int
	start, end timestamp.Time
	idx        *segIndex
	lastUse    uint64
}

// Store is one history's segmented storage. Mutators (Apply, Seal,
// Truncate, Close) follow the same contract as *doem.Database: they must
// exclude concurrent readers of the store's Graph (lore.Store and qss do
// this with per-name reader/writer locks). The Graph read path is safe for
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

	// registry is the global arc relation: every arc ever recorded, per
	// parent, in first-insertion order — exactly the monolithic OutAll
	// order (a re-added arc keeps its original position). member is its
	// membership set.
	registry map[oem.NodeID][]oem.Arc
	member   map[oem.Arc]bool
	// cre and dead summarize annotations sealed away from the active
	// segment: creation times, and final values of nodes deleted by
	// unreachability during a sealed interval.
	cre  map[oem.NodeID]timestamp.Time
	dead map[oem.NodeID]value.Value
	// sealedStatus holds, per arc annotated in sealed history, the kind of
	// its most recent sealed annotation — the arc's status at lastSeal.
	// Arcs absent here and unannotated in the active segment have no
	// annotations at all (vacuously live, the monolithic convention).
	sealedStatus map[oem.Arc]doem.AnnotKind
	// maxID is the id high-water mark across the whole history, including
	// nodes whose deletion has been sealed away (ids are never reused).
	maxID oem.NodeID

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

var segFileRe = regexp.MustCompile(`^seg-(\d{6})\.seg$`)

// Create initializes a fresh segmented store in dir, seeded with d (which
// may already carry history). The active segment is the store's own copy
// of d, so later changes to d do not reach the store. dir must not already
// hold a store. opt may be nil for default log options; pol may be nil for
// the zero policy.
func Create(dir string, d *doem.Database, opt *wal.Options, pol *Policy) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	if _, err := os.Stat(filepath.Join(dir, stateName)); err == nil {
		return nil, fmt.Errorf("segment: %s already holds a store", dir)
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
	if err := s.checkpointTail(d); err != nil {
		l.Close()
		return nil, err
	}
	s.adoptActive(d.Clone())
	s.seedRegistryFromActive()
	s.updateGauges()
	return s, nil
}

// Open loads (or creates) the segmented store in dir, recovering from any
// crash: a torn newest segment file is quarantined, an interrupted seal is
// completed idempotently, and the active segment is rebuilt from the tail
// checkpoint plus its records — never by replaying sealed history.
func Open(dir string, opt *wal.Options, pol *Policy) (*Store, error) {
	begin := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	s := newStore(dir, pol)
	removeTempFiles(dir)

	st, err := s.loadState()
	if err != nil {
		return nil, err
	}
	if err := s.scanSegments(); err != nil {
		return nil, err
	}
	if st == nil && len(s.segs) > 0 {
		// The STATE summary is derived data; rebuild it by replaying the
		// sealed ground truth (slow, but only after external damage).
		st, err = s.rebuildState()
		if err != nil {
			return nil, err
		}
	}
	if st != nil {
		s.registry, s.cre, s.dead, s.maxID = st.registry, st.cre, st.dead, st.maxID
		s.sealedStatus = st.sealedStatus
		for _, arcs := range s.registry {
			for _, a := range arcs {
				s.member[a] = true
			}
		}
	}

	l, err := wal.Open(filepath.Join(dir, tailDirName), opt)
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	s.tail = l
	d, records, err := s.replayTail()
	if err != nil {
		l.Close()
		return nil, err
	}
	s.adoptActive(d)
	if st == nil {
		// Never sealed: the active segment is the whole history and its
		// arc relation is the registry.
		s.seedRegistryFromActive()
	}
	if len(s.segs) > 0 {
		s.lastSeal = s.segs[len(s.segs)-1].end
	}

	// An interrupted seal left its segment file on disk but not the tail
	// checkpoint: the replayed active still contains the sealed steps.
	// Complete the seal — every step is an idempotent atomic replace.
	if n := len(s.segs); n > 0 && len(d.Steps()) > 0 && !d.Steps()[0].After(s.segs[n-1].end) {
		last := s.segs[n-1]
		if !d.LastStep().Equal(last.end) {
			l.Close()
			return nil, fmt.Errorf("%w: tail ends at %s but newest segment seals at %s",
				ErrCorrupt, d.LastStep(), last.end)
		}
		s.segs = s.segs[:n-1]
		if n > 1 {
			s.lastSeal = s.segs[n-2].end
		} else {
			s.lastSeal = timestamp.NegInf
		}
		if err := s.seal(); err != nil {
			l.Close()
			return nil, fmt.Errorf("segment: completing interrupted seal: %w", err)
		}
	}

	// If the STATE summary claims a later seal than the surviving segment
	// files show, the newest segment was quarantined. That is recoverable
	// as long as the tail still holds the interval's steps (they simply
	// remain active); if the tail was checkpointed past the damaged
	// segment, the interval is genuinely gone — refuse to open.
	if st != nil && st.lastSeal.After(s.lastSeal) {
		steps := d.Steps()
		if len(steps) == 0 || steps[0].After(st.lastSeal) {
			l.Close()
			return nil, fmt.Errorf("%w: interval (%s, %s] lost: segment damaged after the tail was checkpointed past it",
				ErrCorrupt, s.lastSeal, st.lastSeal)
		}
	}

	s.stats = OpenStats{Records: records, Segments: len(s.segs), Duration: time.Since(begin)}
	mOpenNs.Observe(int64(s.stats.Duration))
	s.updateGauges()
	return s, nil
}

func newStore(dir string, pol *Policy) *Store {
	s := &Store{
		dir:          dir,
		lastSeal:     timestamp.NegInf,
		registry:     make(map[oem.NodeID][]oem.Arc),
		member:       make(map[oem.Arc]bool),
		cre:          make(map[oem.NodeID]timestamp.Time),
		dead:         make(map[oem.NodeID]value.Value),
		sealedStatus: make(map[oem.Arc]doem.AnnotKind),
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

// The tail log's payloads: every record is one history step
// (change.AppendStep), and the checkpoint is the active segment's stored
// DOEM (doem.Append), so the log is D(O, H) on disk.

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

// checkpointTail installs d as the tail checkpoint covering every record
// appended so far, dropping the log segments it makes redundant. The
// caller excludes writers of both d and the tail for the whole call (the
// single-writer rule), so no record lands between the encoding and the
// checkpoint.
func (s *Store) checkpointTail(d *doem.Database) error {
	payload, err := doem.Append(nil, d)
	if err != nil {
		return fmt.Errorf("segment: tail checkpoint: %w", err)
	}
	if err := s.tail.Checkpoint(payload, s.tail.LastSeq()); err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	return nil
}

// replayTail rebuilds the active segment from the tail checkpoint plus its
// records, folding replayed sets into the store summaries as it goes.
func (s *Store) replayTail() (*doem.Database, int, error) {
	var d *doem.Database
	if payload, _, ok := s.tail.LastCheckpoint(); ok {
		var n int
		var err error
		d, n, err = doem.Decode(payload)
		if err == nil && n != len(payload) {
			err = fmt.Errorf("%d trailing bytes", len(payload)-n)
		}
		if err != nil && json.Valid(payload) {
			return nil, 0, fmt.Errorf("segment: the checkpoint in %s is JSON, the layout of an older version, which is no longer read", s.tail.Dir())
		}
		if err != nil {
			return nil, 0, fmt.Errorf("segment: tail checkpoint: %w", err)
		}
	} else {
		d = doem.New(oem.New())
	}
	records := 0
	err := replaySteps(s.tail, func(seq uint64, step change.Step) error {
		if err := d.Apply(step.At, step.Ops); err != nil {
			return fmt.Errorf("segment: replaying tail record %d: %w", seq, err)
		}
		s.mergeOps(step.Ops, nil)
		records++
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	return d, records, nil
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
// summaries absorb its annotations, the tail log is checkpointed with the
// truncated successor, and a fresh active segment starts at the boundary.
// Sealing with no recorded steps is a no-op.
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

// seal is the crash-ordered seal sequence. Each write is an atomic
// replace, ordered so any crash point recovers: before the tail checkpoint
// lands, the tail still holds the full pre-seal active segment, and Open
// re-runs this sequence to identical bytes.
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
	idx := buildIndex(s.active, sd.base)
	for _, a := range sd.orphans {
		idx.liveAtStart[a] = true
	}

	data, err := encodeSegData(sd)
	if err != nil {
		return err
	}
	if err := atomicWrite(filepath.Join(s.dir, segFileName(id)), data); err != nil {
		return err
	}
	if err := atomicWrite(filepath.Join(s.dir, idxFileName(id)), encodeSegIndex(id, sd.start, bound, idx)); err != nil {
		return err
	}

	// Absorb the active segment's annotations into the store summaries
	// (idempotent — a completed re-run merges the same facts).
	for _, n := range s.active.AllNodeIDs() {
		for _, a := range s.active.NodeAnnots(n) {
			if a.Kind == doem.AnnotCre {
				s.cre[n] = a.At
			}
		}
		if _, ok := s.active.Current().Value(n); !ok {
			if v, ok := s.active.Value(n); ok {
				s.dead[n] = v
			}
		}
		for _, arc := range s.active.OutAll(n) {
			if chain := s.active.ArcAnnots(arc); len(chain) > 0 {
				s.sealedStatus[arc] = chain[len(chain)-1].Kind
			}
		}
	}
	if m := s.active.MaxID(); m > s.maxID {
		s.maxID = m
	}
	s.lastSeal = bound
	s.segs = append(s.segs, &handle{id: id, start: sd.start, end: bound, idx: idx, lastUse: s.ticks.Load()})

	if err := s.writeState(); err != nil {
		return err
	}
	next := doem.New(s.active.Current())
	if err := s.checkpointTail(next); err != nil {
		return err
	}
	s.adoptActive(next)
	mSeals.Inc()
	mSealNs.ObserveSince(start)
	return nil
}

// orphanArcs returns the arcs frozen live at the seal boundary by node
// garbage collection: their most recent annotation anywhere is an add, yet
// the boundary snapshot omits them because GC removed a deleted endpoint.
// The monolithic ArcLiveAt keeps such an arc live at every later instant,
// so the segment being sealed must carry it in its live-at-start set. An
// arc annotated inside the sealing interval is never an orphan (annotating
// requires live endpoints), which keeps this computation byte-identical
// when a crash-recovery re-run executes it after the summary merge has
// already landed in STATE.
func (s *Store) orphanArcs(base *oem.Database) []oem.Arc {
	var orphans []oem.Arc
	for a, kind := range s.sealedStatus {
		if kind != doem.AnnotAdd || base.HasArc(a.Parent, a.Label, a.Child) || len(s.active.ArcAnnots(a)) > 0 {
			continue
		}
		orphans = append(orphans, a)
	}
	sortArcs(orphans)
	return orphans
}

func (s *Store) writeState() error {
	st := &storeState{
		lastSeal:     s.lastSeal,
		maxID:        s.maxID,
		segCount:     len(s.segs),
		registry:     s.registry,
		cre:          s.cre,
		dead:         s.dead,
		sealedStatus: s.sealedStatus,
	}
	return atomicWrite(filepath.Join(s.dir, stateName), encodeState(st))
}

func (s *Store) loadState() (*storeState, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, stateName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("segment: %w", err)
	}
	st, err := decodeState(data)
	if err != nil {
		// Derived data: fall back to a rebuild rather than refusing to open.
		return nil, nil
	}
	return st, nil
}

// scanSegments inventories the sealed segment files, quarantining a torn
// newest segment (the only one a crash can tear — older files are never
// rewritten) and requiring a contiguous id sequence.
func (s *Store) scanSegments() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("segment: %w", err)
	}
	var ids []int
	for _, ent := range entries {
		if m := segFileRe.FindStringSubmatch(ent.Name()); m != nil {
			id, _ := strconv.Atoi(m[1])
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != i+1 {
			return fmt.Errorf("%w: segment files not contiguous (missing seg %d)", ErrCorrupt, i+1)
		}
	}
	for len(ids) > 0 {
		id := ids[len(ids)-1]
		raw, err := readSegFile(s.dir, id)
		if err != nil {
			if quarantineSegment(s.dir, id) {
				ids = ids[:len(ids)-1]
				continue
			}
			return err
		}
		sd, err := decodeSegData(raw)
		if err != nil || sd.id != id {
			if quarantineSegment(s.dir, id) {
				ids = ids[:len(ids)-1]
				continue
			}
			return fmt.Errorf("%w: segment %d", ErrCorrupt, id)
		}
		// The newest is intact. Older files are immutable and were fully
		// CRC-validated when written, so enumerate them from their headers
		// alone — Open stays proportional to the active tail, not the
		// sealed history. Their CRCs are still checked when loadSegData
		// reads them on first query or index rebuild.
		break
	}
	for _, id := range ids {
		head, err := readSegHeader(s.dir, id)
		if err != nil {
			return err
		}
		hid, start, end, err := decodeSegHeader(head)
		if err != nil || hid != id {
			return fmt.Errorf("%w: segment %d header", ErrCorrupt, id)
		}
		s.segs = append(s.segs, &handle{id: id, start: start, end: end})
	}
	return nil
}

// quarantineSegment renames a torn segment's files out of the way so the
// open proceeds from the recoverable prefix (the tail still holds the
// interval's steps when the seal never completed). It reports whether
// anything was moved.
func quarantineSegment(dir string, id int) bool {
	moved := false
	for _, name := range []string{segFileName(id), idxFileName(id)} {
		p := filepath.Join(dir, name)
		if _, err := os.Stat(p); err == nil {
			if os.Rename(p, p+".corrupt") == nil {
				moved = true
			}
		}
	}
	if moved {
		mQuarantined.Inc()
		syncDir(dir)
	}
	return moved
}

// rebuildState reconstructs the STATE summary by replaying every sealed
// segment's ground truth in order — the slow path, taken only when the
// summary file was lost or damaged.
func (s *Store) rebuildState() (*storeState, error) {
	st := &storeState{
		lastSeal:     timestamp.NegInf,
		registry:     make(map[oem.NodeID][]oem.Arc),
		cre:          make(map[oem.NodeID]timestamp.Time),
		dead:         make(map[oem.NodeID]value.Value),
		sealedStatus: make(map[oem.Arc]doem.AnnotKind),
	}
	member := make(map[oem.Arc]bool)
	for _, h := range s.segs {
		raw, err := readSegFile(s.dir, h.id)
		if err != nil {
			return nil, err
		}
		sd, err := decodeSegData(raw)
		if err != nil {
			return nil, err
		}
		if h.id == 1 {
			for _, n := range sd.base.Nodes() {
				for _, a := range sd.base.Out(n) {
					if !member[a] {
						member[a] = true
						st.registry[a.Parent] = append(st.registry[a.Parent], a)
					}
				}
			}
		}
		d, err := doem.FromHistory(sd.base, sd.steps)
		if err != nil {
			return nil, fmt.Errorf("segment: rebuilding state from seg %d: %w", h.id, err)
		}
		for _, step := range sd.steps {
			for _, op := range step.Ops.Canonical() {
				switch o := op.(type) {
				case change.AddArc:
					a := oem.Arc{Parent: o.Parent, Label: symbol.Canon(o.Label), Child: o.Child}
					if !member[a] {
						member[a] = true
						st.registry[o.Parent] = append(st.registry[o.Parent], a)
					}
				case change.CreNode:
					if o.Node > st.maxID {
						st.maxID = o.Node
					}
				}
			}
		}
		for _, n := range d.AllNodeIDs() {
			for _, a := range d.NodeAnnots(n) {
				if a.Kind == doem.AnnotCre {
					st.cre[n] = a.At
				}
			}
			if _, ok := d.Current().Value(n); !ok {
				if v, ok := d.Value(n); ok {
					st.dead[n] = v
				}
			}
			if n > st.maxID {
				st.maxID = n
			}
			for _, arc := range d.OutAll(n) {
				if chain := d.ArcAnnots(arc); len(chain) > 0 {
					st.sealedStatus[arc] = chain[len(chain)-1].Kind
				}
			}
		}
		st.lastSeal = sd.end
	}
	st.segCount = len(s.segs)
	return st, nil
}

// buildIndex extracts the sealed interval's annotation index from the
// pre-seal active segment: its upd and arc chains, plus the complete set
// of arcs live at the interval's start (the base snapshot's arcs).
func buildIndex(d *doem.Database, base *oem.Database) *segIndex {
	x := &segIndex{
		upd:         make(map[oem.NodeID][]doem.NodeAnnot),
		arcs:        make(map[oem.Arc][]doem.ArcAnnot),
		liveAtStart: make(map[oem.Arc]bool),
	}
	for _, n := range base.Nodes() {
		for _, a := range base.Out(n) {
			x.liveAtStart[a] = true
		}
	}
	for _, n := range d.AllNodeIDs() {
		var ups []doem.NodeAnnot
		for _, a := range d.NodeAnnots(n) {
			if a.Kind == doem.AnnotUpd {
				ups = append(ups, a)
			}
		}
		if len(ups) > 0 {
			x.upd[n] = ups
		}
		for _, arc := range d.OutAll(n) {
			if chain := d.ArcAnnots(arc); len(chain) > 0 {
				x.arcs[arc] = append([]doem.ArcAnnot(nil), chain...)
			}
		}
	}
	return x
}

// Truncate collapses all history up to and including t into the active
// segment's base snapshot, deleting every sealed segment — the paper's
// full space-for-accuracy trade. t must not fall strictly inside sealed
// history: sealed segments are immutable, so partial truncation below the
// last seal boundary is refused.
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
	for _, h := range s.segs {
		for _, name := range []string{segFileName(h.id), idxFileName(h.id)} {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !os.IsNotExist(err) {
				return fmt.Errorf("segment: %w", err)
			}
		}
	}
	syncDir(s.dir)
	s.segs = nil
	s.lastSeal = timestamp.NegInf
	s.cre = make(map[oem.NodeID]timestamp.Time)
	s.dead = make(map[oem.NodeID]value.Value)
	s.sealedStatus = make(map[oem.Arc]doem.AnnotKind)
	s.adoptActive(td)
	s.seedRegistryFromActive()
	s.dropStats()
	if err := s.writeState(); err != nil {
		return err
	}
	if err := s.checkpointTail(td); err != nil {
		return err
	}
	s.updateGauges()
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
// from its index file or, when that is missing or damaged, rebuilding it
// from ground truth. Safe under concurrent readers.
func (s *Store) index(h *handle) (*segIndex, error) {
	s.tierMu.Lock()
	defer s.tierMu.Unlock()
	h.lastUse = s.ticks.Load()
	if h.idx != nil {
		return h.idx, nil
	}
	start := obs.Now()
	if data, err := os.ReadFile(filepath.Join(s.dir, idxFileName(h.id))); err == nil {
		if id, x, err := decodeSegIndex(data); err == nil && id == h.id {
			h.idx = x
			mIdxLoads.Inc()
			mIdxLoadNs.ObserveSince(start)
			return x, nil
		}
	}
	// No (valid) index file: rebuild from the segment's ground truth and
	// re-persist it.
	raw, err := readSegFile(s.dir, h.id)
	if err != nil {
		return nil, err
	}
	sd, err := decodeSegData(raw)
	if err != nil {
		return nil, err
	}
	d, err := doem.FromHistory(sd.base, sd.steps)
	if err != nil {
		return nil, fmt.Errorf("segment: rebuilding index for seg %d: %w", h.id, err)
	}
	x := buildIndex(d, sd.base)
	for _, a := range sd.orphans {
		x.liveAtStart[a] = true
	}
	atomicWrite(filepath.Join(s.dir, idxFileName(h.id)), encodeSegIndex(h.id, h.start, h.end, x))
	h.idx = x
	mIdxRebuilds.Inc()
	mIdxLoadNs.ObserveSince(start)
	return x, nil
}

// loadSegData reads and decodes one sealed segment's ground truth.
func (s *Store) loadSegData(h *handle) (*segData, error) {
	raw, err := readSegFile(s.dir, h.id)
	if err != nil {
		return nil, err
	}
	return decodeSegData(raw)
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

func (s *Store) touch() { s.ticks.Add(1) }

// Active returns the live active-segment database: the current snapshot
// plus the annotations recorded since the last seal. Mutate only through
// Apply.
func (s *Store) Active() *doem.Database { return s.active }

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

// SealTimes returns each sealed segment's end boundary, oldest first — the
// instants at which the history is checkpointed on disk.
func (s *Store) SealTimes() []timestamp.Time {
	out := make([]timestamp.Time, len(s.segs))
	for i, h := range s.segs {
		out[i] = h.end
	}
	return out
}

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

func removeTempFiles(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) == ".tmp" {
			os.Remove(filepath.Join(dir, ent.Name()))
		}
	}
}
