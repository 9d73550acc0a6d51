// Package qss implements the paper's Query Subscription Service
// (Section 6, Figures 6-7): standing queries over changes in autonomous,
// semistructured information sources.
//
// For each subscription, QSS periodically sends a *polling query* (Lorel)
// to the source's wrapper, packages the result as an OEM database,
// infers the changes from the previous result with oemdiff (the paper's
// OEMdiff module), folds them into a DOEM database, and evaluates the
// *filter query* (Chorel, with the polling-time variables t[0], t[-1], ...)
// over it. Non-empty filter results are delivered as notifications.
package qss

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/incr"
	"repro/internal/index"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/oemdiff"
	"repro/internal/repl"
	"repro/internal/segment"
	"repro/internal/timestamp"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

// Subscription describes one standing query (paper: S = <f, Ql, Qc>).
type Subscription struct {
	// Name identifies the subscription; the filter query addresses the
	// accumulated DOEM database by this name ("LyttonRestaurants").
	Name string
	// SourceName is the database name the polling query addresses
	// ("guide"). Defaults to "source".
	SourceName string
	// Source is the wrapper to poll.
	Source wrapper.Source
	// Polling is the Lorel polling query Ql.
	Polling string
	// Filter is the Chorel filter query Qc; it may use t[0], t[-1], ...
	Filter string
	// Freq schedules the polling times. Optional when polls are driven
	// manually (the paper's explicit-request mode).
	Freq Freq
}

// Notification is one filter-query delivery.
type Notification struct {
	Subscription string
	At           timestamp.Time
	// Result is the filter query result.
	Result *lorel.Result
	// Answer is the result materialized as a self-contained OEM database
	// (what travels to a remote client).
	Answer *oem.Database
}

// Service is the QSS server core: the Subscription Manager, Query Manager,
// OEMdiff module, DOEM Manager and Chorel engine of Figure 7, without the
// network layer (see Server).
type Service struct {
	mu     sync.Mutex
	subs   map[string]*subState
	notify func(Notification)
	// walDir/walOpt, when set via EnableWAL, give every subscription a
	// write-ahead log so restarts recover history without re-polling.
	walDir string
	walOpt *wal.Options
	// segDir/segOpt/segPol, when set via EnableSegments, give every
	// subscription a time-partitioned segment store instead (mutually
	// exclusive with the WAL).
	segDir string
	segOpt *wal.Options
	segPol *segment.Policy
	// replNode, when set via EnableReplication, routes every poll record
	// through a replicated oplog with quorum acknowledgment (mutually
	// exclusive with walDir/segDir; see repl.go).
	replNode *repl.Node
}

type subState struct {
	// pollMu serializes whole polls (source I/O through filter delivery).
	// It is always acquired before mu and held across the replication
	// quorum wait, during which mu is released so the node's ReplState can
	// fold the record in.
	pollMu sync.Mutex
	// mu guards the fields below (history, remap, poll times).
	mu  sync.Mutex
	sub Subscription
	// replica marks state maintained by replication with no subscription
	// attached (no source, no queries): a follower's copy, or a primary's
	// own state rebuilt from the oplog before Subscribe re-adopted it.
	// Replicas serve reads (History, List) but cannot poll.
	replica bool
	d       *doem.Database
	// pollNs is this subscription's poll-latency histogram,
	// qss_poll_ns{sub="<name>"}.
	pollNs *obs.Histogram
	// remap maps source node ids to packaged ids (stable-id sources).
	remap map[oem.NodeID]oem.NodeID
	// nextID allocates packaged ids monotonically, never reusing ids of
	// objects deleted from the DOEM database.
	nextID    oem.NodeID
	pollTimes []timestamp.Time
	// log, when non-nil, records every poll for crash recovery.
	log *wal.Log
	// seg, when non-nil, is the subscription's segmented history store; d
	// is then always its active segment and the sidecar at sidePath holds
	// the poll times, remap and id high-water mark (see segments.go).
	seg      *segment.Store
	sidePath string
	// ig is the secondary-index wrapper filter queries evaluate through;
	// nil on segmented subscriptions, which query through the segment
	// store's own per-segment indexes. It is advanced by every poll
	// application and rebuilt whenever d is swapped (truncate, import).
	ig *index.Graph
	// fp is the filter query's incremental-matching fingerprint; polls
	// whose applied delta provably cannot produce a filter row skip the
	// evaluation entirely (see internal/incr). Nil on unclaimed replicas,
	// which never evaluate filters.
	fp *incr.Fingerprint
}

// graph returns the view the subscription's filter queries range over:
// the segment store's merged graph in segmented mode (st.d alone is only
// the active segment), else the indexed wrapper, else (with neither
// attached) the raw DOEM database.
func (st *subState) graph() lorel.Graph {
	if st.seg != nil {
		return st.seg.Graph()
	}
	if st.ig != nil {
		return st.ig
	}
	return st.d
}

// setDOEM swaps the subscription's database, rebuilding the index wrapper
// if one was active (an index.Graph is bound to one *doem.Database).
func (st *subState) setDOEM(d *doem.Database) {
	st.d = d
	if st.ig != nil {
		st.ig = index.NewGraph(d)
	}
}

// Errors.
var (
	ErrDuplicate = errors.New("qss: subscription already exists")
	ErrNoSuchSub = errors.New("qss: no such subscription")
	ErrStalePoll = errors.New("qss: polling time not after previous poll")
)

// NewService returns a service delivering notifications through fn
// (which must be safe for concurrent use).
func NewService(fn func(Notification)) *Service {
	if fn == nil {
		fn = func(Notification) {}
	}
	return &Service{
		subs:   make(map[string]*subState),
		notify: fn,
	}
}

// Subscribe registers a subscription. The polling and filter queries are
// parsed eagerly so errors surface at subscription time.
func (s *Service) Subscribe(sub Subscription) error {
	if sub.Name == "" {
		return errors.New("qss: subscription needs a name")
	}
	if sub.SourceName == "" {
		sub.SourceName = "source"
	}
	if sub.Source == nil {
		return errors.New("qss: subscription needs a source")
	}
	if _, err := lorel.Parse(sub.Polling); err != nil {
		return fmt.Errorf("qss: polling query: %w", err)
	}
	if _, err := lorel.Parse(sub.Filter); err != nil {
		return fmt.Errorf("qss: filter query: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, dup := s.subs[sub.Name]; dup {
		if s.replNode == nil || !prev.replica {
			return fmt.Errorf("%w: %q", ErrDuplicate, sub.Name)
		}
		// Adopt the replicated history: the state was rebuilt from the
		// oplog (this node followed a primary, or restarted). Attaching
		// the subscription's source and queries makes it pollable again
		// without losing a step — the t[-i] alignment survives failover.
		prev.mu.Lock()
		prev.sub = sub
		prev.replica = false
		prev.fp = filterFingerprint(sub, prev.graph())
		prev.mu.Unlock()
		return nil
	}
	st := &subState{
		sub: sub,
		// R0 is the empty OEM database (paper Section 6).
		d:      doem.New(oem.New()),
		remap:  make(map[oem.NodeID]oem.NodeID),
		nextID: 1, // the packaged root; alloc pre-increments past it
		pollNs: obs.NewHistogram(obs.LabeledName("qss_poll_ns", "sub", sub.Name)),
	}
	if s.segDir == "" {
		st.ig = index.NewGraph(st.d)
	}
	if s.segDir != "" {
		if err := s.attachSegments(st, sub.Name); err != nil {
			return err
		}
	} else if s.walDir != "" {
		if err := s.attachLog(st, sub.Name); err != nil {
			return err
		}
	}
	st.fp = filterFingerprint(sub, st.graph())
	s.subs[sub.Name] = st
	return nil
}

// filterFingerprint statically analyzes a subscription's filter query for
// incremental matching. Queries that fail to parse or canonicalize here
// come back unanalyzable (never skipped); Subscribe has already surfaced
// parse errors to the caller.
func filterFingerprint(sub Subscription, g lorel.Graph) *incr.Fingerprint {
	q, err := lorel.Parse(sub.Filter)
	if err != nil {
		return &incr.Fingerprint{}
	}
	if err := lorel.Canonicalize(q); err != nil {
		return &incr.Fingerprint{}
	}
	return incr.Extract(q, map[string]lorel.Graph{sub.Name: g})
}

// Unsubscribe removes a subscription. Its write-ahead log or segment
// store, if any, is closed but left on disk: re-subscribing under the same
// name resumes the recorded history.
func (s *Service) Unsubscribe(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.subs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchSub, name)
	}
	st.mu.Lock()
	if st.log != nil {
		st.log.Close()
		st.log = nil
	}
	if st.seg != nil {
		st.seg.Close()
		st.seg = nil
	}
	if s.replNode != nil {
		// Replicated state must stay exactly what the oplog reproduces (a
		// restart replays it all back), so unsubscribing only detaches the
		// source and queries: the history survives as an unclaimed replica
		// and a later Subscribe under the same name re-adopts it.
		st.sub = Subscription{}
		st.replica = true
		st.mu.Unlock()
		return nil
	}
	st.mu.Unlock()
	delete(s.subs, name)
	return nil
}

// List returns the subscription names, sorted.
func (s *Service) List() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var names []string
	for n := range s.subs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// History returns the accumulated DOEM database and polling times of a
// subscription (for inspection and the examples).
func (s *Service) History(name string) (*doem.Database, []timestamp.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.subs[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchSub, name)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.d, append([]timestamp.Time(nil), st.pollTimes...), nil
}

// Truncate collapses a subscription's history up to and including t into
// its base snapshot — the paper's Section 6.1 space-conservation strategy
// ("trading accuracy for space"). Filter queries can no longer distinguish
// changes at or before t. Polling times at or before t are dropped too, so
// t[-i] references keep their alignment with surviving history.
func (s *Service) Truncate(name string, t timestamp.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replNode != nil {
		// Truncation would diverge the in-memory state from what the
		// replicated oplog replays on the next restart (and from every
		// follower). Compact the node's oplog instead.
		return errors.New("qss: truncate is not supported under replication")
	}
	st, ok := s.subs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchSub, name)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.seg != nil {
		// Segmented mode: the store collapses its own history (deleting the
		// sealed segments, whose immutability also means t may not fall
		// strictly inside them).
		if err := st.seg.Truncate(t); err != nil {
			return fmt.Errorf("qss: truncate: %w", err)
		}
		st.setDOEM(st.seg.Active())
	} else {
		td, err := st.d.Truncate(t)
		if err != nil {
			return fmt.Errorf("qss: truncate: %w", err)
		}
		st.setDOEM(td)
	}
	var kept []timestamp.Time
	for _, pt := range st.pollTimes {
		if pt.After(t) {
			kept = append(kept, pt)
		}
	}
	st.pollTimes = kept
	st.pruneRemap()
	// Under WAL persistence a truncation is also a log compaction: the
	// truncated state becomes the checkpoint and covered segments go away
	// (the paper's space-for-accuracy trade applied to the log).
	if st.log != nil {
		ck, err := st.marshalState(name)
		if err != nil {
			return err
		}
		if err := st.log.Checkpoint(ck, st.log.LastSeq()); err != nil {
			return fmt.Errorf("qss: truncate checkpoint: %w", err)
		}
	}
	if st.seg != nil {
		if err := st.saveSidecar(); err != nil {
			return err
		}
	}
	return nil
}

// Poll performs one polling cycle for the named subscription at time t:
// poll the source, evaluate the polling query, diff against the previous
// result, extend the DOEM history, evaluate the filter, and deliver a
// notification if the filter result is non-empty. It returns the
// notification (nil when empty) — Figure 6's dataflow.
func (s *Service) Poll(name string, t timestamp.Time) (*Notification, error) {
	return s.PollContext(context.Background(), name, t)
}

// PollContext is Poll with cancellation: the polling and filter query
// evaluations abort shortly after ctx is cancelled.
func (s *Service) PollContext(ctx context.Context, name string, t timestamp.Time) (*Notification, error) {
	start := obs.Now()
	n, err := s.pollContext(ctx, name, t)
	mPolls.Inc()
	if err != nil {
		mPollFailures.Inc()
	} else if n != nil {
		mNotifications.Inc()
	}
	if !start.IsZero() {
		s.mu.Lock()
		st := s.subs[name]
		s.mu.Unlock()
		if st != nil {
			st.pollNs.ObserveSince(start)
		}
	}
	return n, err
}

func (s *Service) pollContext(ctx context.Context, name string, t timestamp.Time) (*Notification, error) {
	s.mu.Lock()
	st, ok := s.subs[name]
	node := s.replNode
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNoSuchSub, name)
	}
	s.mu.Unlock()
	// Polls of one subscription are serialized by pollMu; different
	// subscriptions poll concurrently. st.mu alone is not enough: in
	// replication mode it is released around the quorum wait below.
	st.pollMu.Lock()
	defer st.pollMu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.replica {
		return nil, fmt.Errorf("%w: %q is an unclaimed replica (subscribe to adopt it)", ErrNoSuchSub, name)
	}
	if len(st.pollTimes) > 0 && !t.After(st.pollTimes[len(st.pollTimes)-1]) {
		return nil, fmt.Errorf("%w: %s", ErrStalePoll, t)
	}

	tr := obs.TraceFrom(ctx)

	// 1. Query Manager: polling query over the source snapshot.
	sp := tr.StartSpan("source-poll")
	snap, err := st.sub.Source.Poll()
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("qss: polling source: %w", err)
	}
	eng := lorel.NewEngine()
	eng.Register(st.sub.SourceName, lorel.NewOEMGraph(snap))
	res, err := eng.QueryContext(ctx, st.sub.Polling)
	if err != nil {
		return nil, fmt.Errorf("qss: polling query: %w", err)
	}

	// 2. Package the result as an OEM database R_i (recursively including
	// all subobjects, paper Section 6). Packaging allocates remap entries
	// and advances the id high-water mark; savedNextID lets a refused
	// replication append roll those allocations back.
	savedNextID := st.nextID
	pkg, added := st.packageResult(snap, res)

	// 3. OEMdiff: infer U_i with U_i(R_{i-1}) = R_i.
	sp = tr.StartSpan("diff")
	prev := st.d.Current()
	var ops change.Set
	if st.sub.Source.StableIDs() {
		ops, err = oemdiff.DiffIdentity(prev, pkg)
	} else {
		next := st.d.MaxID()
		if st.seg != nil {
			// The active segment's MaxID forgets ids that were garbage-
			// collected in sealed intervals; the store's covers all history
			// (ids are never reused, paper Section 2.2).
			if m := st.seg.MaxID(); m > next {
				next = m
			}
		}
		// pkg was just built and never collected: its high-water mark is
		// its largest id.
		if m := pkg.MaxID(); m > next {
			next = m
		}
		ops, err = oemdiff.Diff(prev, pkg, &oemdiff.Options{
			AllocID: func() oem.NodeID { next++; return next },
		})
	}
	sp.EndNote("ops=%d", len(ops))
	if err != nil {
		return nil, fmt.Errorf("qss: differencing: %w", err)
	}

	// 4. DOEM Manager: extend the history.
	sp = tr.StartSpan("apply")
	if node != nil {
		// Replication mode: the poll record must be durable on the
		// replicated oplog — and acknowledged by the configured quorum —
		// before the state advances and the filter runs. The node's
		// ReplState folds the record into st (the same code path a
		// follower's stream and a restart replay take), so st.mu is
		// released for the duration; pollMu keeps the poll serialized.
		rec := appendPollRecord(nil, t, ops, added, st.nextID)
		st.mu.Unlock()
		seq, aerr := node.Apply(name, rec)
		st.mu.Lock()
		sp.End()
		if aerr != nil {
			if seq == 0 {
				// Never appended (fenced, demoted, closed before the
				// append): roll back the ids packaging allocated, or the
				// next poll of a stable-id source would reuse mappings no
				// oplog record carries and silently diverge from the
				// followers.
				for _, p := range added {
					delete(st.remap, p.Src)
				}
				st.nextID = savedNextID
			}
			// seq != 0 means the record is durably on the oplog — the
			// node was fenced, closed, or timed out only during the quorum
			// wait (the normal failover case). It may still replicate, or
			// a failover may discard it; either way in-memory id state
			// must keep matching the durable log, so no rollback. In both
			// cases, no notification for a poll that might not survive.
			return nil, fmt.Errorf("qss: replicating poll: %w", aerr)
		}
	} else if st.seg != nil {
		// Segmented mode persists the sidecar (poll time, remap additions,
		// id high-water mark) BEFORE the store append. A crash between the
		// two then recovers as a phantom silent poll — the orphaned remap
		// entries prune against the unchanged state and the source changes
		// surface at the next poll's own time — rather than leaving durable
		// change steps whose remap delta is lost, which would make a
		// stable-id source's objects look spuriously re-created.
		st.pollTimes = append(st.pollTimes, t)
		if err := st.saveSidecar(); err != nil {
			st.pollTimes = st.pollTimes[:len(st.pollTimes)-1]
			sp.End()
			return nil, err
		}
		if len(ops) > 0 {
			// The append lands in the active segment and may trigger an
			// auto-seal, which swaps the active database.
			if err := st.seg.Apply(t, ops); err != nil {
				sp.End()
				return nil, fmt.Errorf("qss: applying changes: %w", err)
			}
			if ad := st.seg.Active(); ad != st.d {
				st.setDOEM(ad)
			}
			st.pruneRemap()
		}
		sp.End()
	} else {
		if len(ops) > 0 {
			if err := st.d.Apply(t, ops); err != nil {
				sp.End()
				return nil, fmt.Errorf("qss: applying changes: %w", err)
			}
			st.pruneRemap()
			// The index follows the step, so the filter query below reads
			// post-poll tables without a rebuild; cached views of instants
			// at or after t are dropped with it.
			if st.ig != nil {
				st.ig.Advance(t, ops)
			}
		}
		st.pollTimes = append(st.pollTimes, t)
		sp.End()

		// 4b. Log the poll. Empty change sets are logged too: the polling
		// time itself is state (it anchors the filter's t[-i] variables).
		if st.log != nil {
			sp = tr.StartSpan("wal-append")
			rec := appendPollRecord(nil, t, ops, added, st.nextID)
			_, err := st.log.Append(rec)
			sp.End()
			if err != nil {
				return nil, fmt.Errorf("qss: logging poll: %w", err)
			}
		}
	}

	// 4c. Incremental matching: if the filter query carries fresh guards
	// (internal/incr) and the delta just applied provably cannot produce
	// any filter row, skip the evaluation — the outcome (no notification)
	// is byte-identical to evaluating. This runs after every apply branch
	// above, so it holds the same way on plain, segmented, and replicated
	// subscriptions; st.d.Current() is the full post-apply snapshot in all
	// three (the active segment carries the whole current state).
	if st.fp != nil {
		cur := st.d.Current()
		if !st.fp.Decide(incr.Summarize(ops, cur), cur) {
			return nil, nil
		}
	}

	// 5. Chorel engine: evaluate the filter with t[i] bound.
	feng := lorel.NewEngine()
	feng.Register(st.sub.Name, st.graph())
	feng.SetPollTimes(st.pollTimes)
	fres, err := feng.QueryContext(ctx, st.sub.Filter)
	if err != nil {
		return nil, fmt.Errorf("qss: filter query: %w", err)
	}
	if fres.Len() == 0 {
		return nil, nil
	}
	n := &Notification{
		Subscription: name,
		At:           t,
		Result:       fres,
		Answer:       fres.Answer(),
	}
	s.notify(*n)
	return n, nil
}

// packageResult copies the subobject closure of the polling-query result
// into a fresh database. Source node ids map to stable packaged ids; ids
// whose objects were deleted from the DOEM database are never reused.
// It also reports the remap entries added during this poll (empty for
// sources without stable ids, whose remap is per-poll) so they can be
// recorded in the subscription's write-ahead log.
func (st *subState) packageResult(snap *oem.Database, res *lorel.Result) (*oem.Database, []remapPair) {
	out := oem.New()
	alloc := func() oem.NodeID {
		st.nextID++
		return st.nextID
	}
	remap := st.remap
	persistent := st.sub.Source.StableIDs()
	if !persistent {
		// Source ids are meaningless across polls; use a per-poll map so
		// the persistent remap does not grow without bound.
		remap = make(map[oem.NodeID]oem.NodeID)
	}
	var added []remapPair
	copied := make(map[oem.NodeID]bool)
	var copyNode func(src oem.NodeID) oem.NodeID
	copyNode = func(src oem.NodeID) oem.NodeID {
		id, ok := remap[src]
		if !ok {
			id = alloc()
			remap[src] = id
			if persistent {
				added = append(added, remapPair{Src: src, ID: id})
			}
		}
		if copied[src] {
			return id
		}
		copied[src] = true
		if !out.Has(id) {
			if err := out.CreateNodeWithID(id, snap.MustValue(src)); err != nil {
				panic(fmt.Sprintf("qss: packaging: %v", err))
			}
		}
		for _, a := range snap.Out(src) {
			c := copyNode(a.Child)
			if err := out.AddArc(id, a.Label, c); err != nil {
				panic(fmt.Sprintf("qss: packaging: %v", err))
			}
		}
		return id
	}
	for _, row := range res.Rows {
		for _, cell := range row.Cells {
			if !cell.IsNode() {
				continue
			}
			label := cell.Label
			if label == "" {
				label = "result"
			}
			id := copyNode(cell.Node())
			if !out.HasArc(out.Root(), label, id) {
				if err := out.AddArc(out.Root(), label, id); err != nil {
					panic(fmt.Sprintf("qss: packaging: %v", err))
				}
			}
		}
	}
	return out, added
}

// pruneRemap drops remap entries whose packaged object has been deleted
// from the DOEM database, so a reappearing source object is treated as a
// fresh creation (ids are never reused, paper Section 2.2).
func (st *subState) pruneRemap() {
	cur := st.d.Current()
	for src, id := range st.remap {
		if !cur.Has(id) {
			delete(st.remap, src)
		}
	}
}
