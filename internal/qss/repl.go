package qss

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/repl"
)

// Replicated subscription state. With EnableReplication, every poll's
// record — the same bytes EnableWAL would append to a per-subscription
// log — is routed through a repl.Node before it is folded into the
// subscription's history: the node appends it to its replicated oplog,
// streams it to followers, and blocks until the configured ack quorum
// has it durably. ReplState, the node's repl.State, is the single place
// records are applied to subscription state, so the primary's polls,
// a follower's stream, restarts and catch-up replays all take the
// identical code path and converge on identical state. See
// docs/replication.md.

// ReplState implements repl.State over a Service's subscription states.
// Oplog records are poll records addressed by subscription name; applying
// one mirrors exactly the transitions a local poll performs (remap
// additions, history step, poll-time append, id high-water mark).
// Subscriptions a follower has never seen are created as unclaimed
// replicas — they accumulate history and serve reads, and Subscribe
// adopts them (reattaching source and queries) after a promotion.
type ReplState struct {
	svc *Service
}

// NewReplState builds the repl.State for svc. Open the repl.Node over it,
// then hand the node to svc.EnableReplication.
func NewReplState(svc *Service) *ReplState { return &ReplState{svc: svc} }

// Reset implements repl.State: drop every subscription state ahead of a
// full oplog replay or snapshot restore. Replicated state is by contract
// exactly what the oplog reproduces, so nothing here is lost.
func (rs *ReplState) Reset() error {
	s := rs.svc
	s.mu.Lock()
	s.subs = make(map[string]*subState)
	s.mu.Unlock()
	return nil
}

// Apply implements repl.State: fold one replicated poll record into the
// named subscription, creating an unclaimed replica the first time a
// name is seen.
func (rs *ReplState) Apply(name string, data []byte) error {
	t, ops, added, nextID, err := decodePollRecord(data)
	if err != nil {
		return fmt.Errorf("qss: repl record: %w", err)
	}
	st := rs.svc.replSub(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	// Mirror pollContext/recoverFromLog: remap additions happen while
	// packaging (before the step is applied), pruning after.
	for _, p := range added {
		st.remap[p.Src] = p.ID
	}
	if len(ops) > 0 {
		if err := st.d.Apply(t, ops); err != nil {
			return fmt.Errorf("qss: applying repl record: %w", err)
		}
		st.pruneRemap()
		if st.ig != nil {
			st.ig.Advance(t, ops)
		}
	}
	st.pollTimes = append(st.pollTimes, t)
	st.nextID = nextID
	return nil
}

// Snapshot implements repl.State: a count followed by (name, marshaled
// wireState) pairs in sorted name order — the checkpoint/bootstrap
// encoding for the whole service.
func (rs *ReplState) Snapshot() ([]byte, error) {
	s := rs.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.subs))
	for name := range s.subs {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := binary.AppendUvarint(nil, uint64(len(names)))
	for _, name := range names {
		st := s.subs[name]
		st.mu.Lock()
		data, err := st.marshalState(name)
		st.mu.Unlock()
		if err != nil {
			return nil, err
		}
		buf = change.AppendString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(len(data)))
		buf = append(buf, data...)
	}
	return buf, nil
}

// Restore implements repl.State: replace every subscription state with
// the snapshot's. All restored states are unclaimed replicas; Subscribe
// re-adopts them.
func (rs *ReplState) Restore(snapshot []byte) error {
	count, n := binary.Uvarint(snapshot)
	if n <= 0 {
		return errors.New("qss: repl snapshot: bad count")
	}
	s := rs.svc
	s.mu.Lock()
	defer s.mu.Unlock()
	subs := make(map[string]*subState, count)
	off := n
	for i := uint64(0); i < count; i++ {
		name, sn, err := change.DecodeString(snapshot[off:])
		if err != nil {
			return fmt.Errorf("qss: repl snapshot name: %w", err)
		}
		off += sn
		dlen, dn := binary.Uvarint(snapshot[off:])
		if dn <= 0 {
			return fmt.Errorf("qss: repl snapshot: bad length for %q", name)
		}
		off += dn
		if uint64(len(snapshot)-off) < dlen {
			return fmt.Errorf("qss: repl snapshot: truncated data for %q", name)
		}
		st := s.newReplicaLocked(name)
		if err := st.restoreState(snapshot[off : off+int(dlen)]); err != nil {
			return err
		}
		off += int(dlen)
		subs[name] = st
	}
	if off != len(snapshot) {
		return fmt.Errorf("qss: repl snapshot: %d trailing bytes", len(snapshot)-off)
	}
	s.subs = subs
	return nil
}

// replSub returns the named subscription state, creating an unclaimed
// replica if none exists.
func (s *Service) replSub(name string) *subState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.subs[name]
	if !ok {
		st = s.newReplicaLocked(name)
		s.subs[name] = st
	}
	return st
}

// newReplicaLocked builds an empty unclaimed replica state. Caller holds
// s.mu.
func (s *Service) newReplicaLocked(name string) *subState {
	st := &subState{
		replica: true,
		d:       doem.New(oem.New()),
		remap:   make(map[oem.NodeID]oem.NodeID),
		nextID:  1,
		pollNs:  obs.NewHistogram(obs.LabeledName("qss_poll_ns", "sub", name)),
	}
	st.ig = index.NewGraph(st.d)
	return st
}

// EnableReplication routes every poll through node: a poll is not applied
// (and no notification fires) until its record is durable on the node's
// oplog, and not acknowledged to the caller until the node's ack quorum
// has it. node must have been opened over this service's ReplState; any
// subscription states the node rebuilt from its oplog during Open become
// adoptable replicas. Mutually exclusive with EnableWAL/EnableSegments
// (the replicated oplog is the durable truth) and must precede Subscribe.
func (s *Service) EnableReplication(node *repl.Node) error {
	rs, ok := node.StateRef().(*ReplState)
	if !ok || rs.svc != s {
		return errors.New("qss: node was not opened over this service's ReplState")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.walDir != "" || s.segDir != "" {
		return errors.New("qss: replication is mutually exclusive with WAL/segment persistence")
	}
	for name, st := range s.subs {
		if !st.replica {
			return fmt.Errorf("qss: EnableReplication must precede Subscribe (%q exists)", name)
		}
	}
	s.replNode = node
	return nil
}

// ReplStatus reports the replication status of the service's node, and
// whether replication is enabled at all — the staleness bound a read
// replica serves alongside query results.
func (s *Service) ReplStatus() (repl.Status, bool) {
	s.mu.Lock()
	node := s.replNode
	s.mu.Unlock()
	if node == nil {
		return repl.Status{}, false
	}
	return node.Status(), true
}
