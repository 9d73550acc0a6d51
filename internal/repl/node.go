package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/timestamp"
	"repro/internal/wal"
)

// Role is a node's replication role.
type Role int32

const (
	// RoleFollower replicates from a primary (or idles awaiting one).
	RoleFollower Role = iota
	// RolePrimary accepts writes and streams to followers.
	RolePrimary
)

// String implements fmt.Stringer.
func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "follower"
}

// AckMode selects when a primary acknowledges a write.
type AckMode int

const (
	// AckNone acknowledges after the local durable append.
	AckNone AckMode = iota
	// AckOne additionally waits for one follower's durable ack.
	AckOne
	// AckQuorum waits until a majority of the Replicas+1 cluster
	// (counting the primary itself) has the record durably.
	AckQuorum
)

// ParseAckMode parses "none", "one", or "quorum".
func ParseAckMode(s string) (AckMode, error) {
	switch s {
	case "none":
		return AckNone, nil
	case "one":
		return AckOne, nil
	case "quorum":
		return AckQuorum, nil
	}
	return 0, fmt.Errorf("repl: unknown ack mode %q", s)
}

// String implements fmt.Stringer.
func (m AckMode) String() string {
	switch m {
	case AckOne:
		return "one"
	case AckQuorum:
		return "quorum"
	}
	return "none"
}

// Clock supplies timestamps for staleness accounting. qss.RealClock and
// qss.SimClock both satisfy it; protocol bytes never depend on it, so
// replicated histories are clock-independent.
type Clock interface {
	Now() timestamp.Time
}

type wallClock struct{}

func (wallClock) Now() timestamp.Time { return timestamp.FromTime(time.Now()) }

// Config configures a Node.
type Config struct {
	// ID names this node in acks and logs. Required.
	ID string
	// Ack is the write acknowledgment mode. Default AckNone.
	Ack AckMode
	// Replicas is the expected follower count — the quorum denominator
	// for AckQuorum (majority of Replicas+1 nodes, primary included).
	Replicas int
	// AckTimeout bounds how long Apply waits for the quorum; 0 waits
	// until commit, fencing, or Close.
	AckTimeout time.Duration
	// Advertise is the client-facing address followers should redirect
	// clients to while this node is primary.
	Advertise string
	// WAL configures the oplog. Default: wal defaults (SyncAlways — acks
	// imply durability).
	WAL *wal.Options
	// Clock supplies staleness timestamps. Default: wall clock.
	Clock Clock
	// MaxFrame caps frame payloads. Default DefaultMaxFrame.
	MaxFrame int
	// BatchBytes bounds one streamed record batch. Default 1 MiB.
	BatchBytes int
	// RedialInitial/RedialMax bound the follower redial backoff.
	// Defaults 50ms / 2s.
	RedialInitial, RedialMax time.Duration
	// HeartbeatEvery makes a primary push commit-watermark frames to idle
	// sessions at this cadence, so follower IdleTimeouts and staleness
	// gauges work. 0 disables (frames still flow on every append and
	// watermark advance).
	HeartbeatEvery time.Duration
	// IdleTimeout makes a follower drop (and redial) a stream that is
	// silent for this long — the liveness check that detects a partition
	// or dead primary. 0 disables.
	IdleTimeout time.Duration
	// OnRole, when set, is called (on its own goroutine) after every role
	// change with the new role and epoch.
	OnRole func(role Role, epoch uint64)
	// OnPrimaryAddr, when set, is called (on its own goroutine) when a
	// follower learns its primary's advertised client address.
	OnPrimaryAddr func(addr string)
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = wallClock{}
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = DefaultMaxFrame
	}
	if c.BatchBytes <= 0 {
		c.BatchBytes = 1 << 20
	}
	if c.RedialInitial <= 0 {
		c.RedialInitial = 50 * time.Millisecond
	}
	if c.RedialMax <= 0 {
		c.RedialMax = 2 * time.Second
	}
	return c
}

// Errors returned by Node operations.
var (
	// ErrNotPrimary reports a write on a node that is not primary.
	ErrNotPrimary = errors.New("repl: not primary")
	// ErrFenced reports a write on a deposed primary: a higher epoch
	// exists and this node's appends are rejected cluster-wide.
	ErrFenced = errors.New("repl: fenced by higher epoch")
	// ErrClosed reports use of a closed node.
	ErrClosed = errors.New("repl: node closed")
	// ErrAckTimeout reports a write that was appended locally but did not
	// reach its quorum within AckTimeout. The write is NOT acknowledged;
	// it may still replicate, or may be discarded by a failover.
	ErrAckTimeout = errors.New("repl: ack quorum timeout")
)

// Node is one replication participant: an oplog, a State materialized
// from it, an epoch, and a role. All methods are safe for concurrent use.
type Node struct {
	dir   string
	cfg   Config
	state State
	log   *wal.Log

	// wmu guards the group commit queue (see Apply); it is never taken
	// while holding mu.
	wmu     sync.Mutex
	wcond   *sync.Cond
	writes  []*write
	writing bool

	mu   sync.Mutex
	cond *sync.Cond
	// Protected by mu:
	epoch           uint64
	role            Role
	fenced          bool // deposed while primary; Apply returns ErrFenced
	applied         uint64
	appliedAt       timestamp.Time
	lastRecordEpoch uint64 // epoch of the record at applied (divergence check)
	commit          uint64 // primary: quorum watermark; follower: min(known, applied)
	commitKnown     uint64 // follower: primary's reported watermark
	primaryTip      uint64 // follower: primary's last known seq
	primaryAddr     string // follower: primary's advertised client address
	lastContact     time.Time
	acked           map[string]uint64 // primary: follower id -> durable seq
	sessions        map[*session]struct{}
	hb              uint64 // heartbeat tick counter; wakes idle sessions
	following       bool
	followStop      chan struct{}
	followConn      chan struct{} // closed to interrupt the active dial/pump
	followNetConn   interface{ Close() error }
	closed          bool
}

// Open opens (creating if needed) the node rooted at dir: <dir>/oplog is
// the replication log, <dir>/EPOCH the fencing epoch. The State is Reset
// and deterministically rebuilt from the oplog (checkpoint restore +
// record replay). Nodes start as followers; call Promote to take the
// primary role.
func Open(dir string, state State, cfg Config) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("repl: Config.ID is required")
	}
	cfg = cfg.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repl: %w", err)
	}
	log, err := wal.Open(filepath.Join(dir, "oplog"), cfg.WAL)
	if err != nil {
		return nil, err
	}
	epoch, err := loadEpoch(filepath.Join(dir, epochFile))
	if err != nil {
		log.Close()
		return nil, err
	}
	n := &Node{
		dir:      dir,
		cfg:      cfg,
		state:    state,
		log:      log,
		epoch:    epoch,
		acked:    make(map[string]uint64),
		sessions: make(map[*session]struct{}),
	}
	n.cond = sync.NewCond(&n.mu)
	n.wcond = sync.NewCond(&n.wmu)
	if err := n.rebuildState(); err != nil {
		log.Close()
		return nil, err
	}
	n.registerMetrics()
	if cfg.HeartbeatEvery > 0 {
		go n.heartbeatLoop()
	}
	return n, nil
}

// heartbeatLoop periodically wakes streaming sessions so they push the
// commit watermark even when no records flow.
func (n *Node) heartbeatLoop() {
	t := time.NewTicker(n.cfg.HeartbeatEvery)
	defer t.Stop()
	for range t.C {
		n.mu.Lock()
		if n.closed {
			n.mu.Unlock()
			return
		}
		n.hb++
		n.cond.Broadcast()
		n.mu.Unlock()
	}
}

// rebuildState resets the State and replays checkpoint + oplog into it.
func (n *Node) rebuildState() error {
	if err := n.state.Reset(); err != nil {
		return fmt.Errorf("repl: reset state: %w", err)
	}
	pay, upTo, ok, err := n.log.LastCheckpoint()
	if err != nil {
		return fmt.Errorf("repl: %w", err)
	}
	if ok && (upTo > 0 || len(pay) > 0) {
		if err := n.state.Restore(pay); err != nil {
			return fmt.Errorf("repl: restore the checkpoint in %s: %w", n.log.Dir(), err)
		}
		n.applied = upTo
	}
	maxEpoch := uint64(0)
	err = n.log.Replay(func(seq uint64, payload []byte) error {
		repoch, name, data, err := DecodeOplogRecord(payload)
		if err != nil {
			return fmt.Errorf("repl: oplog record %d: %w", seq, err)
		}
		if err := n.state.Apply(name, data); err != nil {
			return fmt.Errorf("repl: replay record %d: %w", seq, err)
		}
		n.applied = seq
		n.lastRecordEpoch = repoch
		if repoch > maxEpoch {
			maxEpoch = repoch
		}
		return nil
	})
	if err != nil {
		return err
	}
	if maxEpoch > n.epoch {
		// The log outran the epoch file (crash between record append and
		// epoch persist cannot happen in this direction, but a copied
		// data directory can); trust the log.
		if err := saveEpoch(filepath.Join(n.dir, epochFile), maxEpoch); err != nil {
			return err
		}
		n.epoch = maxEpoch
	}
	n.commit = n.applied
	n.commitKnown = n.applied
	n.primaryTip = n.applied
	n.appliedAt = n.cfg.Clock.Now()
	return nil
}

// Close stops following, closes every session, and closes the oplog.
func (n *Node) Close() error {
	n.StopFollow()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	err := n.closeLocked()
	n.mu.Unlock()
	return err
}

// closeLocked marks the node closed, wakes every waiter, drops the
// sessions of its followers and closes the oplog. Caller holds n.mu.
func (n *Node) closeLocked() error {
	n.closed = true
	n.cond.Broadcast()
	for s := range n.sessions {
		s.conn.Close()
	}
	return n.log.Close()
}

// Epoch returns the node's current fencing epoch.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epoch
}

// Role returns the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// ID returns the node id.
func (n *Node) ID() string { return n.cfg.ID }

// StateRef returns the State the node maintains.
func (n *Node) StateRef() State { return n.state }

// PrimaryAddr returns the advertised client address of the last primary
// this follower spoke to ("" when unknown or primary).
func (n *Node) PrimaryAddr() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.primaryAddr
}

// Promote makes this node primary under a new, strictly higher epoch. It
// stops any follower loop first. Promoting an existing primary is a
// no-op. The caller (operator or orchestration layer) is responsible for
// picking the most advanced surviving follower — compare Status().Applied
// and Epoch across candidates — or acknowledged records may be lost.
func (n *Node) Promote() error {
	n.StopFollow()
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return ErrClosed
	}
	if n.role == RolePrimary && !n.fenced {
		n.mu.Unlock()
		return nil
	}
	epoch := n.epoch + 1
	if err := saveEpoch(filepath.Join(n.dir, epochFile), epoch); err != nil {
		n.mu.Unlock()
		return err
	}
	n.epoch = epoch
	n.role = RolePrimary
	n.fenced = false
	n.primaryAddr = ""
	// The promoted node's entire log is now the authoritative history.
	n.commit = n.applied
	n.acked = make(map[string]uint64)
	cb := n.cfg.OnRole
	n.cond.Broadcast()
	n.mu.Unlock()
	mEpochChanges.Inc()
	if cb != nil {
		go cb(RolePrimary, epoch)
	}
	return nil
}

// Demote steps a primary down to follower without an epoch change — the
// operator's tool for re-pointing a healed stale primary at the new one
// (pair with Follow). In-flight Apply calls fail unacknowledged.
func (n *Node) Demote() {
	n.mu.Lock()
	var fire func()
	if n.role == RolePrimary {
		n.role = RoleFollower
		n.cond.Broadcast()
		if cb := n.cfg.OnRole; cb != nil {
			ep := n.epoch
			fire = func() { go cb(RoleFollower, ep) }
		}
	}
	n.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// adoptEpochLocked raises the node's epoch to e (persisting it), deposing
// a primary if one is running. Callers hold n.mu; e must exceed n.epoch.
// Returns the OnRole callback to fire (outside the lock) when a
// deposition happened.
func (n *Node) adoptEpochLocked(e uint64) func() {
	if err := saveEpoch(filepath.Join(n.dir, epochFile), e); err != nil {
		// Keep the in-memory epoch authoritative even if the disk write
		// failed; a restart may regress the epoch file but the cluster
		// will re-fence on first contact.
		mEpochPersistFailures.Inc()
	}
	n.epoch = e
	mEpochChanges.Inc()
	var fire func()
	if n.role == RolePrimary {
		n.role = RoleFollower
		n.fenced = true
		mFences.Inc()
		if cb := n.cfg.OnRole; cb != nil {
			fire = func() { go cb(RoleFollower, e) }
		}
	}
	n.cond.Broadcast()
	return fire
}

// adoptEpoch is adoptEpochLocked for callers without the lock; it ignores
// stale (lower or equal) epochs.
func (n *Node) adoptEpoch(e uint64) {
	n.mu.Lock()
	var fire func()
	if e > n.epoch {
		fire = n.adoptEpochLocked(e)
	}
	n.mu.Unlock()
	if fire != nil {
		fire()
	}
}

// needAcks returns how many follower acks a write needs before commit.
func (n *Node) needAcks() int {
	switch n.cfg.Ack {
	case AckOne:
		return 1
	case AckQuorum:
		return (n.cfg.Replicas + 1) / 2
	}
	return 0
}

// recomputeCommitLocked advances the commit watermark from follower acks.
func (n *Node) recomputeCommitLocked() {
	need := n.needAcks()
	c := n.commit
	if need == 0 {
		c = n.applied
	} else if len(n.acked) >= need {
		vals := make([]uint64, 0, len(n.acked))
		for _, v := range n.acked {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] > vals[j] })
		if k := vals[need-1]; k > c {
			c = k
		}
		if c > n.applied {
			c = n.applied
		}
	}
	if c > n.commit {
		n.commit = c
		n.cond.Broadcast()
	}
}

// recordAck registers a follower's durable position.
func (n *Node) recordAck(id string, seq uint64) {
	n.mu.Lock()
	if seq > n.acked[id] {
		n.acked[id] = seq
		n.recomputeCommitLocked()
	}
	n.mu.Unlock()
	mAcksReceived.Inc()
}

// Apply appends one record as primary, streams it, and blocks until the
// configured quorum has it durably (see AckMode). Concurrent Applies share
// one oplog append and sync (group commit); each record is still durable
// before it is applied to state. On success the returned sequence is
// acknowledged: it survives any failover that promotes a quorum member.
// Any error means NOT acknowledged, but the returned sequence says how far
// the write got: 0 means the record was not applied to state (callers may
// roll back cleanly) — it was never appended, or its append failed and
// closed the node, and a restart replays it only if the whole frame
// reached the disk; nonzero means it is durably in the local oplog and
// callers must NOT roll back state the oplog carries. Such a record is
// applied to state — the error is fencing, closing, or an ack timeout
// during the quorum wait, and the record may still replicate or a
// failover may discard it — unless the node closed before applying it, in
// which case a restart replays it.
func (n *Node) Apply(name string, data []byte) (uint64, error) {
	start := time.Now()
	w := &write{name: name, data: data}
	n.wmu.Lock()
	n.writes = append(n.writes, w)
	for !w.done && n.writing {
		n.wcond.Wait()
	}
	if !w.done {
		// Lead a group: every write queued so far goes in one append.
		group := n.writes
		n.writes, n.writing = nil, true
		n.wmu.Unlock()
		n.commitGroup(group)
		n.wmu.Lock()
		for _, g := range group {
			g.done = true
		}
		n.writing = false
		n.wcond.Broadcast()
	}
	n.wmu.Unlock()
	if w.err != nil {
		return w.seq, w.err
	}
	n.mu.Lock()
	err := n.waitCommittedLocked(w.seq)
	n.mu.Unlock()
	mAckWaitNs.Observe(time.Since(start).Nanoseconds())
	return w.seq, err
}

// write is one Apply call queued for the next group commit.
type write struct {
	name string
	data []byte
	seq  uint64
	err  error
	done bool // under wmu: seq and err are final
}

// commitGroup appends a group of writes to the oplog with one sync, then
// applies them to the state in order, setting each write's seq and err.
func (n *Node) commitGroup(group []*write) {
	n.mu.Lock()
	defer n.mu.Unlock()
	var refuse error
	switch {
	case n.closed:
		refuse = ErrClosed
	case n.role != RolePrimary:
		mApplyRejected.Add(int64(len(group)))
		refuse = ErrNotPrimary
		if n.fenced {
			refuse = ErrFenced
		}
	}
	var first uint64
	if refuse == nil {
		payloads := make([][]byte, len(group))
		for i, w := range group {
			payloads[i] = AppendOplogRecord(nil, n.epoch, w.name, w.data)
		}
		var err error
		if first, err = n.log.AppendBatch(payloads); err != nil {
			// A failed write or fsync may leave frames torn or whole on
			// disk. Appending after them could put acknowledged records
			// behind a torn frame, which recovery cuts, and a whole one
			// would replay a record this state never applied. Fatal —
			// close the node; a restart recovers exactly what is durable.
			n.closeLocked()
			refuse = fmt.Errorf("repl: append (node closed): %w", err)
		}
	}
	if refuse != nil {
		for _, w := range group {
			w.err = refuse
		}
		return
	}
	for i, w := range group {
		w.seq = first + uint64(i)
		if n.closed {
			w.err = fmt.Errorf("repl: record %d not applied: %w", w.seq, ErrClosed)
			continue
		}
		if err := n.state.Apply(w.name, w.data); err != nil {
			// The record is durably in the log but not in this process's
			// state, and the two cannot be reconciled from here: advancing
			// applied would stream a record our own state never applied,
			// while skipping it would let the next append stream past it.
			// Fatal — close the node so a follower takes over (or a
			// restart replays the log, repairing the state).
			n.closeLocked()
			w.err = fmt.Errorf("repl: apply state (log/state diverged; node closed): %w", err)
			continue
		}
		n.applied = w.seq
		n.appliedAt = n.cfg.Clock.Now()
		n.lastRecordEpoch = n.epoch
	}
	n.recomputeCommitLocked()
	n.cond.Broadcast() // wake streaming sessions
}

// waitCommittedLocked blocks until seq commits, the node is fenced or
// closed, or AckTimeout passes. Caller holds n.mu.
func (n *Node) waitCommittedLocked(seq uint64) error {
	var deadline time.Time
	var timer *time.Timer
	if n.cfg.AckTimeout > 0 {
		deadline = time.Now().Add(n.cfg.AckTimeout)
		timer = time.AfterFunc(n.cfg.AckTimeout, func() {
			n.mu.Lock()
			n.cond.Broadcast()
			n.mu.Unlock()
		})
		defer timer.Stop()
	}
	for n.commit < seq {
		if n.closed {
			return ErrClosed
		}
		if n.role != RolePrimary {
			return ErrFenced
		}
		if !deadline.IsZero() && !time.Now().Before(deadline) {
			mAckTimeouts.Inc()
			return ErrAckTimeout
		}
		n.cond.Wait()
	}
	return nil
}

// Compact snapshots the State into the oplog checkpoint at the applied
// position, letting the log drop covered segments. Followers behind the
// checkpoint catch up from a snapshot instead of record replay.
func (n *Node) Compact() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	snap, err := n.state.Snapshot()
	if err != nil {
		return err
	}
	mSnapshots.Inc()
	return n.log.Checkpoint(snap, n.applied)
}

// Status is a point-in-time view of the node, including the staleness
// bound a read replica reports to clients: every record with sequence <=
// Applied is reflected in reads; LagSeq records are known to exist beyond
// that, and AppliedAt is the Clock time of the newest applied record.
type Status struct {
	ID          string
	Role        Role
	Fenced      bool
	Epoch       uint64
	Applied     uint64
	Commit      uint64
	PrimaryTip  uint64
	LagSeq      uint64
	AppliedAt   timestamp.Time
	LastContact time.Time
	Followers   int
	PrimaryAddr string
}

// Status returns the node's current status.
func (n *Node) Status() Status {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := Status{
		ID:          n.cfg.ID,
		Role:        n.role,
		Fenced:      n.fenced,
		Epoch:       n.epoch,
		Applied:     n.applied,
		Commit:      n.commit,
		PrimaryTip:  n.primaryTip,
		AppliedAt:   n.appliedAt,
		LastContact: n.lastContact,
		Followers:   len(n.sessions),
		PrimaryAddr: n.primaryAddr,
	}
	if n.role == RoleFollower {
		if n.commitKnown < n.applied {
			st.Commit = n.commitKnown
		} else {
			st.Commit = n.applied
		}
		if n.primaryTip > n.applied {
			st.LagSeq = n.primaryTip - n.applied
		}
	}
	return st
}

// Epoch persistence: <dir>/EPOCH is wal.FrameFile("QREPLEP1", uvarint
// epoch), written by wal.AtomicWrite.

const epochFile = "EPOCH"

var epochMagic = []byte("QREPLEP1")

func saveEpoch(path string, epoch uint64) error {
	if err := wal.AtomicWrite(path, wal.FrameFile(epochMagic, binary.AppendUvarint(nil, epoch))); err != nil {
		return fmt.Errorf("repl: epoch: %w", err)
	}
	return nil
}

func loadEpoch(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("repl: epoch: %w", err)
	}
	body, err := wal.UnframeFile(epochMagic, data)
	if err != nil {
		return 0, fmt.Errorf("repl: epoch file %s: %w", path, err)
	}
	epoch, vn := binary.Uvarint(body)
	if vn <= 0 {
		return 0, errors.New("repl: malformed epoch value")
	}
	return epoch, nil
}
