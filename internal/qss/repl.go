package qss

import (
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"path/filepath"
	"sort"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/repl"
	"repro/internal/wal"
)

// Persistent subscription state. A persistent service routes every
// history record (a poll or a truncation, see record.go) through a
// repl.Node before the record is folded into the subscription's history:
// the node appends it to its oplog, streams it to followers, and blocks
// until the configured ack quorum has it durably. EnableWAL opens a
// standalone node (no followers, acknowledged on the local append);
// EnableReplication takes one the caller opened and owns. ReplState, the
// node's repl.State, folds records in with the same function a service
// without persistence uses, so the primary's polls, a follower's stream,
// restarts and catch-up replays converge on identical state. See
// docs/replication.md.

// ReplState implements repl.State over a Service's subscription states.
// Oplog records are history records addressed by subscription name;
// applying one is the fold a service without a node performs.
// Subscriptions a follower has never seen are created as unclaimed
// replicas — they accumulate history and serve reads, and Subscribe
// adopts them (reattaching source and queries) after a promotion.
type ReplState struct {
	svc *Service
}

// NewReplState builds the repl.State for svc. Open the repl.Node over it,
// then hand the node to svc.EnableReplication (EnableWAL does both).
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

// Apply implements repl.State: fold one history record into the named
// subscription, creating an unclaimed replica the first time a name is
// seen.
func (rs *ReplState) Apply(name string, data []byte) error {
	r, err := decodeRecord(data)
	if err != nil {
		return fmt.Errorf("qss: repl record: %w", err)
	}
	st := rs.svc.replSub(name)
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.apply(r)
}

// Snapshot implements repl.State: a count followed by (name, length,
// marshalState) triples in sorted name order — the checkpoint/bootstrap
// encoding for the whole service. The node calls it under its own lock, so
// no record folds in meanwhile; s.mu is released before the states are
// visited, so lookups, List and Subscribe do not wait behind a poll that
// holds its st.mu.
func (rs *ReplState) Snapshot() ([]byte, error) {
	s := rs.svc
	s.mu.Lock()
	subs := maps.Clone(s.subs)
	s.mu.Unlock()
	names := make([]string, 0, len(subs))
	for name := range subs {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := binary.AppendUvarint(nil, uint64(len(names)))
	for _, name := range names {
		st := subs[name]
		st.mu.Lock()
		data := st.marshalState()
		st.mu.Unlock()
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
	return st
}

// walNodeID names the standalone node EnableWAL opens.
const walNodeID = "qss"

var errPersistent = errors.New("qss: persistence is already enabled")

// EnableWAL makes the service persistent under dir. It opens a standalone
// repl.Node there over the service's ReplState — an oplog with no
// followers whose writes are acknowledged on the local durable append —
// promotes it, and enables it as EnableReplication does. opt configures
// the oplog (nil: wal defaults, fsync on every append). Histories the
// oplog holds come back as unclaimed replicas that Subscribe re-adopts.
// Close closes the node. It must precede Subscribe.
func (s *Service) EnableWAL(dir string, opt *wal.Options) error {
	if dir == "" {
		return errors.New("qss: WAL needs a directory")
	}
	// Opening the node resets the service's state: check first.
	s.mu.Lock()
	enabled, subs := s.node != nil, len(s.subs)
	s.mu.Unlock()
	if enabled {
		return errPersistent
	}
	if subs > 0 {
		return errors.New("qss: EnableWAL must precede Subscribe")
	}
	if old, _ := filepath.Glob(filepath.Join(dir, "*.subwal")); len(old) > 0 {
		return fmt.Errorf("qss: %s is a per-subscription log of an older layout, which is no longer read; move it out of %s", old[0], dir)
	}
	node, err := repl.Open(dir, NewReplState(s), repl.Config{ID: walNodeID, WAL: opt})
	if err != nil {
		return fmt.Errorf("qss: %w", err)
	}
	if err := node.Promote(); err != nil {
		node.Close()
		return err
	}
	if err := s.EnableReplication(node); err != nil {
		node.Close()
		return err
	}
	s.mu.Lock()
	s.ownNode = true
	s.mu.Unlock()
	return nil
}

// Close closes the node EnableWAL opened, if any, and drops the histories
// it held: the oplog keeps them, and reopening dir brings them back. Later
// polls fail. A node passed to EnableReplication stays open and the state
// with it: its caller owns both. Close is for shutdown.
func (s *Service) Close() error {
	s.mu.Lock()
	node, own := s.node, s.ownNode
	s.mu.Unlock()
	if !own {
		return nil
	}
	err := node.Close()
	// Something may still reference a closed service (a stopped timer's
	// closure, a metrics callback); it must not pin every history.
	s.mu.Lock()
	s.subs = make(map[string]*subState)
	s.mu.Unlock()
	return err
}

// EnableReplication routes every poll and truncation through node: a
// record is not applied (and no notification fires) until it is durable
// on the node's oplog, and not acknowledged to the caller until the
// node's ack quorum has it. node must have been opened over this
// service's ReplState; any subscription states the node rebuilt from its
// oplog during Open become adoptable replicas. A service takes one node,
// before Subscribe.
func (s *Service) EnableReplication(node *repl.Node) error {
	rs, ok := node.StateRef().(*ReplState)
	if !ok || rs.svc != s {
		return errors.New("qss: node was not opened over this service's ReplState")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.node != nil {
		return errPersistent
	}
	for name, st := range s.subs {
		if !st.replica {
			return fmt.Errorf("qss: EnableReplication must precede Subscribe (%q exists)", name)
		}
	}
	s.node = node
	return nil
}
