// Package qss implements the paper's Query Subscription Service
// (Section 6, Figures 6-7): standing queries over changes in autonomous,
// semistructured information sources.
//
// For each subscription, QSS periodically sends a *polling query* (Lorel)
// to the source's wrapper, infers the changes from the previous result
// (the paper's OEMdiff module: one walk of the result for sources with
// stable ids, packaging plus oemdiff's matching differ otherwise), folds
// them into a DOEM database, and evaluates the *filter query* (Chorel,
// with the polling-time variables t[0], t[-1], ...) over it. Non-empty
// filter results are delivered as notifications.
package qss

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/incr"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/oemdiff"
	"repro/internal/repl"
	"repro/internal/timestamp"
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
	// node, when set by EnableWAL or EnableReplication, makes every record
	// durable on its oplog (and, replicated, on its ack quorum) before the
	// record is folded in; see repl.go. ownNode marks a node EnableWAL
	// opened, which Close closes.
	node    *repl.Node
	ownNode bool
}

type subState struct {
	// pollMu serializes whole polls (source I/O through filter delivery)
	// and truncations. It is always acquired before mu and held across the
	// node's append and quorum wait, during which mu is released so the
	// node's ReplState can fold the record in.
	pollMu sync.Mutex
	// mu guards the fields below (history, remap, poll times).
	mu  sync.Mutex
	sub Subscription
	// replica marks state kept by the node with no subscription attached
	// (no source, no queries): a follower's copy, a history rebuilt from
	// the oplog before Subscribe re-adopted it, or one Unsubscribe
	// detached. Replicas serve reads (History, List) but cannot poll.
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
	// fp is the filter query's incremental-matching fingerprint; polls
	// whose applied delta provably cannot produce a filter row skip the
	// evaluation entirely (see internal/incr). Nil on unclaimed replicas,
	// which never evaluate filters.
	fp *incr.Fingerprint
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
		if !prev.replica {
			return fmt.Errorf("%w: %q", ErrDuplicate, sub.Name)
		}
		// Adopt the recorded history: the state was rebuilt from the oplog
		// (this node followed a primary, or restarted) or kept when the
		// subscription was dropped. Attaching the subscription's source and
		// queries makes it pollable again without losing a step — the
		// t[-i] alignment survives restarts and failover.
		prev.mu.Lock()
		prev.sub = sub
		prev.replica = false
		prev.fp = filterFingerprint(sub, prev.d)
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
	st.fp = filterFingerprint(sub, st.d)
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

// Unsubscribe removes a subscription. A persistent service keeps its
// history: state must stay exactly what the oplog reproduces (a restart
// replays it all back), so unsubscribing only detaches the source and
// queries. The history survives as an unclaimed replica and a later
// Subscribe under the same name re-adopts it.
func (s *Service) Unsubscribe(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.subs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchSub, name)
	}
	if s.node == nil {
		delete(s.subs, name)
		return nil
	}
	st.mu.Lock()
	st.sub = Subscription{}
	st.replica = true
	st.mu.Unlock()
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
//
// A persistent service records the truncation like a poll, so a restart
// and every follower truncate too, then compacts the node's oplog: the
// truncated state becomes its checkpoint and the records it covers go. An
// error from that compaction leaves the truncation in place.
func (s *Service) Truncate(name string, t timestamp.Time) error {
	st, node, err := s.lookup(name)
	if err != nil {
		return err
	}
	st.pollMu.Lock()
	defer st.pollMu.Unlock()
	st.mu.Lock()
	if node != nil {
		// A record the fold refuses would close the node: check first.
		// Without a node a refused fold leaves st as it was.
		if _, err := st.d.Truncate(t); err != nil {
			st.mu.Unlock()
			return fmt.Errorf("qss: truncate: %w", err)
		}
	}
	err = st.commit(node, name, record{truncate: true, t: t})
	st.mu.Unlock()
	if err != nil || node == nil {
		return err
	}
	if err := node.Compact(); err != nil {
		return fmt.Errorf("qss: compacting log: %w", err)
	}
	return nil
}

// lookup returns the named subscription state and the service's node.
func (s *Service) lookup(name string) (*subState, *repl.Node, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.subs[name]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchSub, name)
	}
	return st, s.node, nil
}

// commit makes one record durable and folds it into st. With a node, the
// node appends the record, folds it in through ReplState (the path a
// follower's stream and a restart replay take), then waits for its ack
// quorum; st.mu is released meanwhile and pollMu keeps the subscription's
// records serialized. On error either the record was never appended and st
// never moved, or it is durable and already folded in (fenced, closed or
// timed out during the quorum wait) and may still replicate or be
// discarded by a failover. Without a node the record is folded in
// directly. Caller holds pollMu and st.mu.
func (st *subState) commit(node *repl.Node, name string, r record) error {
	if node == nil {
		return st.apply(r)
	}
	st.mu.Unlock()
	_, err := node.Apply(name, r.appendTo(nil))
	st.mu.Lock()
	if err != nil {
		return fmt.Errorf("qss: logging record: %w", err)
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
	st, node, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	// Polls of one subscription are serialized by pollMu; different
	// subscriptions poll concurrently. st.mu alone is not enough: with a
	// node it is released around the append and quorum wait below.
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

	// 2-3. Package the result as an OEM database R_i (recursively
	// including all subobjects, paper Section 6) and infer U_i with
	// U_i(R_{i-1}) = R_i. With stable ids, one walk of the result finds U_i
	// without building R_i; otherwise the matching differ compares R_i as
	// packaged. Either way st is left as it is: the remap entries the poll
	// allocates and the new id high-water mark travel in the poll record
	// and take effect when the record is folded in.
	sp = tr.StartSpan("diff")
	var ops change.Set
	var added []remapPair
	var nextID oem.NodeID
	if st.sub.Source.StableIDs() {
		ops, added, nextID, err = st.diffResult(snap, res)
	} else {
		var pkg *oem.Database
		pkg, nextID = st.packageResult(snap, res)
		// pkg was just built and never collected: its high-water mark is
		// its largest id.
		next := max(st.d.MaxID(), pkg.MaxID())
		ops, err = oemdiff.Diff(st.d.Current(), pkg, &oemdiff.Options{
			AllocID: func() oem.NodeID { next++; return next },
		})
	}
	sp.EndNote("ops=%d", len(ops))
	if err != nil {
		return nil, fmt.Errorf("qss: differencing: %w", err)
	}

	// 4. DOEM Manager: extend the history by the poll record (t_i, U_i),
	// written ahead: the record is durable on the node's oplog, if any,
	// before it is folded in, so memory never holds a poll a restart would
	// not replay. Empty change sets are recorded too: the polling time
	// itself is state (it anchors the filter's t[-i] variables). On error,
	// no notification for a poll that might not survive.
	sp = tr.StartSpan("apply")
	err = st.commit(node, name, record{t: t, ops: ops, added: added, nextID: nextID})
	sp.End()
	if err != nil {
		return nil, err
	}
	if st.replica {
		// Unsubscribe detached the subscription while st.mu was released:
		// the recorded history stays, but there is no filter to evaluate
		// and nobody to notify.
		return nil, nil
	}

	// 4b. Incremental matching: if the filter query carries fresh guards
	// (internal/incr) and the delta just applied provably cannot produce
	// any filter row, skip the evaluation — the outcome (no notification)
	// is byte-identical to evaluating.
	if st.fp != nil {
		cur := st.d.Current()
		if !st.fp.Decide(incr.Summarize(ops, cur), cur) {
			return nil, nil
		}
	}

	// 5. Chorel engine: evaluate the filter with t[i] bound.
	feng := lorel.NewEngine()
	feng.Register(st.sub.Name, st.d)
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

// closure is the subobject closure of a polling-query result: the objects
// packaging copies into R_i, with their packaged ids.
type closure struct {
	ids   map[oem.NodeID]oem.NodeID // source id -> packaged id
	nodes []remapPair               // every object, in visit order
	root  []oem.Arc                 // the packaged root's arcs, in order
	inR   map[oem.Arc]bool          // root, as a set
}

// walkResult visits the closure in packaging order — depth first from each
// node cell, row by row, each object once — and gives every object its
// packaged id from idOf on first sight, so fresh ids follow that order.
func walkResult(snap *oem.Database, res *lorel.Result, root oem.NodeID, idOf func(src oem.NodeID) oem.NodeID) *closure {
	c := &closure{ids: make(map[oem.NodeID]oem.NodeID), inR: make(map[oem.Arc]bool)}
	var visit func(src oem.NodeID) oem.NodeID
	visit = func(src oem.NodeID) oem.NodeID {
		if id, ok := c.ids[src]; ok {
			return id
		}
		id := idOf(src)
		c.ids[src] = id
		c.nodes = append(c.nodes, remapPair{Src: src, ID: id})
		for _, a := range snap.Out(src) {
			visit(a.Child)
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
			a := oem.Arc{Parent: root, Label: label, Child: visit(cell.Node())}
			if !c.inR[a] {
				c.inR[a] = true
				c.root = append(c.root, a)
			}
		}
	}
	return c
}

// packageResult copies the closure of the polling-query result into a
// fresh database under fresh ids above st.nextID — R_i for the matching
// differ, since a source without stable ids gives ids that mean nothing
// across polls. It returns R_i and the new id high-water mark.
func (st *subState) packageResult(snap *oem.Database, res *lorel.Result) (*oem.Database, oem.NodeID) {
	out := oem.New()
	nextID := st.nextID
	c := walkResult(snap, res, out.Root(), func(oem.NodeID) oem.NodeID { nextID++; return nextID })
	for _, n := range c.nodes {
		if err := out.CreateNodeWithID(n.ID, snap.MustValue(n.Src)); err != nil {
			panic(fmt.Sprintf("qss: packaging: %v", err))
		}
	}
	arcs := c.root
	for _, n := range c.nodes {
		for _, a := range snap.Out(n.Src) {
			arcs = append(arcs, oem.Arc{Parent: n.ID, Label: a.Label, Child: c.ids[a.Child]})
		}
	}
	for _, a := range arcs {
		if err := out.AddArc(a.Parent, a.Label, a.Child); err != nil {
			panic(fmt.Sprintf("qss: packaging: %v", err))
		}
	}
	return out, nextID
}

// diffResult is packaging plus oemdiff.DiffIdentity for a stable-id
// source, in one walk of the result closure: it returns the change set
// DiffIdentity(R_{i-1}, R_i) would for R_i as packaged, in the same order,
// without building R_i. Source ids map to packaged ids through st.remap;
// ids of objects deleted from the DOEM database are never reused. It reads
// st without changing it, reporting the remap entries this poll allocates
// and the new id high-water mark for the poll record.
func (st *subState) diffResult(snap *oem.Database, res *lorel.Result) (change.Set, []remapPair, oem.NodeID, error) {
	prev := st.d.Current()
	root := prev.Root()
	nextID := st.nextID
	var added []remapPair
	c := walkResult(snap, res, root, func(src oem.NodeID) oem.NodeID {
		if id, ok := st.remap[src]; ok {
			return id
		}
		nextID++
		added = append(added, remapPair{Src: src, ID: nextID})
		return nextID
	})
	slices.SortFunc(c.nodes, func(a, b remapPair) int { return cmp.Compare(a.ID, b.ID) })
	find := func(id oem.NodeID) (oem.NodeID, bool) {
		i, ok := slices.BinarySearchFunc(c.nodes, id, func(n remapPair, id oem.NodeID) int { return cmp.Compare(n.ID, id) })
		if !ok {
			return 0, false
		}
		return c.nodes[i].Src, true
	}

	// Created and updated objects, by id.
	var set change.Set
	inPrev := 1 // objects of R_i already in R_{i-1}, the root first
	for _, n := range c.nodes {
		v := snap.MustValue(n.Src)
		ov, ok := prev.Value(n.ID)
		switch {
		case !ok:
			set = append(set, change.CreNode{Node: n.ID, Value: v})
			continue
		case !ov.Equal(v):
			set = append(set, change.UpdNode{Node: n.ID, Value: v})
		}
		inPrev++
	}
	// Added arcs, by parent id. A parent that keeps fewer of its arcs than
	// R_{i-1} gave it has lost some.
	var short []oem.NodeID
	addArcs := func(p oem.NodeID, arcs []oem.Arc, child func(oem.Arc) oem.NodeID) {
		kept := 0
		for _, a := range arcs {
			if ch := child(a); prev.HasArc(p, a.Label, ch) {
				kept++
			} else {
				set = append(set, change.AddArc{Parent: p, Label: a.Label, Child: ch})
			}
		}
		if kept != len(prev.Out(p)) {
			short = append(short, p)
		}
	}
	addArcs(root, c.root, func(a oem.Arc) oem.NodeID { return a.Child })
	for _, n := range c.nodes {
		addArcs(n.ID, snap.Out(n.Src), func(a oem.Arc) oem.NodeID { return c.ids[a.Child] })
	}
	// Objects of R_{i-1} the walk did not reach lose every arc.
	if inPrev < prev.NumNodes() {
		for _, p := range prev.Nodes() {
			if _, reached := find(p); !reached && p != root && len(prev.Out(p)) > 0 {
				short = append(short, p)
			}
		}
		slices.Sort(short)
	}
	// Removed arcs, by parent id.
	for _, p := range short {
		src, reached := find(p)
		for _, a := range prev.Out(p) {
			var kept bool
			if p == root {
				kept = c.inR[a]
			} else if ch, ok := find(a.Child); ok && reached {
				kept = snap.HasArc(src, a.Label, ch)
			}
			if !kept {
				set = append(set, change.RemArc{Parent: p, Label: a.Label, Child: a.Child})
			}
		}
	}
	if err := set.Validate(prev); err != nil {
		return nil, nil, 0, fmt.Errorf("oemdiff: inconsistent snapshots: %w", err)
	}
	return set, added, nextID, nil
}
