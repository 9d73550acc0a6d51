package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/wal"
)

// TestApplyFencedMidQuorumWaitReturnsSeq: a primary deposed while blocked
// on the ack quorum has already appended and applied the record; Apply
// must report the sequence (not 0) so callers know the record is durable
// and do not roll back state the oplog carries.
func TestApplyFencedMidQuorumWaitReturnsSeq(t *testing.T) {
	p := newTestNode(t, Config{ID: "p", Ack: AckQuorum, Replicas: 2})
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	type res struct {
		seq uint64
		err error
	}
	ch := make(chan res, 1)
	s := testStep(0)
	go func() {
		seq, err := p.n.ApplyStep("db", s.At, s.Ops)
		ch <- res{seq, err}
	}()
	// The append+apply happen before the quorum wait; once Applied is
	// visible the writer is blocked waiting for acks that never come.
	waitFor(t, "record appended", func() bool { return p.n.Status().Applied == 1 })
	p.n.Demote()
	r := <-ch
	if !errors.Is(r.err, ErrFenced) {
		t.Fatalf("deposed mid-wait apply: %v", r.err)
	}
	if r.seq != 1 {
		t.Fatalf("deposed mid-wait seq = %d, want 1 (record is durable)", r.seq)
	}
	if st := p.n.Status(); st.Applied != 1 {
		t.Fatalf("status after deposed apply: %+v", st)
	}
}

// flakyState wraps StoreState with a one-shot Apply failure.
type flakyState struct {
	*StoreState
	mu   sync.Mutex
	fail bool
}

func (s *flakyState) Apply(name string, data []byte) error {
	s.mu.Lock()
	fail := s.fail
	s.fail = false
	s.mu.Unlock()
	if fail {
		return errors.New("injected apply failure")
	}
	return s.StoreState.Apply(name, data)
}

func (s *flakyState) failNext() {
	s.mu.Lock()
	s.fail = true
	s.mu.Unlock()
}

// TestStateApplyFailureClosesNode: a State.Apply failure after a
// successful log append leaves log and state irreconcilable — the node
// must stop (no further writes, no streaming of the record its own state
// skipped); a restart replays the log and repairs the divergence.
func TestStateApplyFailureClosesNode(t *testing.T) {
	dir := t.TempDir()
	fs := &flakyState{StoreState: NewStoreState()}
	n, err := Open(dir, fs, Config{ID: "p", WAL: &wal.Options{Sync: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Promote(); err != nil {
		t.Fatal(err)
	}
	s0 := testStep(0)
	if _, err := n.ApplyStep("db", s0.At, s0.Ops); err != nil {
		t.Fatal(err)
	}

	fs.failNext()
	s1 := testStep(1)
	seq, err := n.ApplyStep("db", s1.At, s1.Ops)
	if err == nil {
		t.Fatal("apply with failing state succeeded")
	}
	if seq != 2 {
		t.Fatalf("failed apply seq = %d, want 2 (record was appended)", seq)
	}
	s2 := testStep(2)
	if _, err := n.ApplyStep("db", s2.At, s2.Ops); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after log/state divergence: %v (want ErrClosed)", err)
	}

	// Reopen: the replay includes the orphaned record, so log and state
	// agree again.
	n2, err := Open(dir, NewStoreState(), Config{ID: "p", WAL: &wal.Options{Sync: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	if got := n2.Status().Applied; got != 2 {
		t.Fatalf("applied after restart = %d, want 2", got)
	}
}

// TestAppendFailureClosesNode: a failed oplog append may leave a torn or
// whole frame on disk, so the primary must stop there. Later Applies fail
// even once the cause is gone (an append after a torn frame would be cut
// by recovery, though acknowledged), and a restart replays exactly the
// records before the failure.
func TestAppendFailureClosesNode(t *testing.T) {
	dir := t.TempDir()
	// Every append after the first opens a new segment named by its first
	// sequence number; a file already holding that name fails the append.
	opt := &wal.Options{Sync: wal.SyncNever, SegmentSize: 1}
	p := openTestNode(t, dir, Config{ID: "p", WAL: opt})
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	p.applySteps("db", 0, 2)
	blocker := filepath.Join(dir, "oplog", fmt.Sprintf("%016x.seg", p.n.Status().Applied+1))
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	s := testStep(2)
	if seq, err := p.n.ApplyStep("db", s.At, s.Ops); err == nil || seq != 0 {
		t.Fatalf("apply over a failing append: seq %d, err %v (want 0 and an error)", seq, err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	s = testStep(3)
	if _, err := p.n.ApplyStep("db", s.At, s.Ops); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after a failed append: %v (want ErrClosed)", err)
	}
	if got := p.n.Status().Applied; got != 2 {
		t.Fatalf("applied after a failed append = %d, want 2", got)
	}
	p.n.Close()

	re := openTestNode(t, dir, Config{ID: "p", WAL: opt})
	want := newTestNode(t, Config{ID: "w"})
	if err := want.n.Promote(); err != nil {
		t.Fatal(err)
	}
	want.applySteps("db", 0, 2)
	if got := re.n.Status().Applied; got != 2 {
		t.Fatalf("applied after restart = %d, want 2", got)
	}
	requireSameDB(t, re.state, want.state, "db")
}

// TestFollowerApplyFailureClosesNode: a follower whose State refuses a
// streamed record has it in its oplog but not in its state; a redial would
// append it a second time. The follower must close instead, and a restart
// replays its log into the primary's state.
func TestFollowerApplyFailureClosesNode(t *testing.T) {
	p := newTestNode(t, Config{ID: "p"})
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fs := &flakyState{StoreState: NewStoreState()}
	f, err := Open(dir, fs, Config{ID: "f", WAL: &wal.Options{Sync: wal.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Follow(pipeDialer(p.n)); err != nil {
		t.Fatal(err)
	}
	p.applySteps("db", 0, 1)
	waitFor(t, "follower catch-up", func() bool { return f.Status().Applied == 1 })
	fs.failNext()
	p.applySteps("db", 1, 3)
	waitFor(t, "follower closed", func() bool {
		_, err := f.Apply("db", nil)
		return errors.Is(err, ErrClosed)
	})
	f.Close()

	re := openTestNode(t, dir, Config{ID: "f"})
	if got := re.n.Status().Applied; got != 2 {
		t.Fatalf("follower applied after restart = %d, want 2", got)
	}
	want := newTestNode(t, Config{ID: "w"})
	if err := want.n.Promote(); err != nil {
		t.Fatal(err)
	}
	want.applySteps("db", 0, 2)
	requireSameDB(t, re.state, want.state, "db")
}

// TestFollowerSnapshotResetFailureClosesNode: a follower that restored the
// primary's snapshot into its state but could not reset its oplog to it
// holds a state its log does not carry. It must close instead of serving
// that state and redialing; with the obstacle gone, a reopen reports the
// position its log holds, and following again catches up.
func TestFollowerSnapshotResetFailureClosesNode(t *testing.T) {
	p := newTestNode(t, Config{ID: "p"})
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	p.applySteps("db", 0, 30)
	if err := p.n.Compact(); err != nil {
		t.Fatal(err)
	}
	p.applySteps("db", 30, 40)

	dir := t.TempDir()
	f := openTestNode(t, dir, Config{ID: "f"})
	// A non-empty directory where the reset writes its checkpoint makes
	// the reset fail.
	obstacle := filepath.Join(dir, "oplog", "CHECKPOINT.tmp")
	if err := os.MkdirAll(filepath.Join(obstacle, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := f.n.Follow(pipeDialer(p.n)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower closed", func() bool {
		_, err := f.n.Apply("db", nil)
		return errors.Is(err, ErrClosed)
	})
	f.n.Close()

	if err := os.RemoveAll(obstacle); err != nil {
		t.Fatal(err)
	}
	re := openTestNode(t, dir, Config{ID: "f"})
	if got, want := re.n.Status().Applied, re.n.log.LastSeq(); got != want {
		t.Fatalf("applied after reopen = %d, log holds %d", got, want)
	}
	if _, err := re.state.GetDOEM("db"); err == nil {
		t.Fatal("reopened follower state holds a database its log does not carry")
	}
	if err := re.n.Follow(pipeDialer(p.n)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "follower catch-up", func() bool { return re.n.Status().Applied == 40 })
	requireSameDB(t, re.state, p.state, "db")
}

// TestCheckpointBoundaryDivergence: a follower whose last record sits
// exactly at the primary's checkpoint base — where the record bytes may
// have been compacted away — must still be verified. A matching tip
// (same seq and record epoch as the primary's) streams; a mismatched one
// is reset from a snapshot instead of silently extending a divergent tail.
func TestCheckpointBoundaryDivergence(t *testing.T) {
	p := newTestNode(t, Config{ID: "p"})
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	p.applySteps("db", 0, 5)
	// Compact at the applied position: base == applied == 5.
	if err := p.n.Compact(); err != nil {
		t.Fatal(err)
	}

	handshake := func(recEpoch uint64) (Frame, net.Conn) {
		t.Helper()
		a, b := net.Pipe()
		go p.n.HandleConn(b)
		hello := Frame{Type: FrameHello, Epoch: p.n.Epoch(), Seq: 5, Commit: recEpoch, Payload: handshakePayload("f")}
		if err := WriteFrame(a, hello); err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(a)
		w, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil || w.Type != FrameWelcome {
			t.Fatalf("welcome: %+v, %v", w, err)
		}
		// Force a post-welcome frame so acceptance is observable: a new
		// record streams from seq 6 to an accepted follower.
		s := testStep(int(p.n.Status().Applied))
		go p.n.ApplyStep("db", s.At, s.Ops)
		f, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		return f, a
	}

	// Matching boundary record (records 1..5 were written at epoch 1):
	// streamed, no reset — even though the record bytes at the boundary
	// may be gone.
	f, conn := handshake(1)
	if f.Type != FrameRecord {
		t.Fatalf("matching boundary follower got frame type %d, want record", f.Type)
	}
	conn.Close()

	// Divergent boundary record (epoch from a deposed primary): snapshot.
	f, conn = handshake(p.n.Epoch() + 7)
	if f.Type != FrameSnapshot {
		t.Fatalf("divergent boundary follower got frame type %d, want snapshot", f.Type)
	}
	conn.Close()
}

// TestWelcomeDoesNotRegressCommitKnown: a reconnect Welcome carrying an
// older commit watermark must not lower what the follower already knows.
func TestWelcomeDoesNotRegressCommitKnown(t *testing.T) {
	f := newTestNode(t, Config{ID: "f"})
	f.n.mu.Lock()
	f.n.commitKnown = 7
	f.n.mu.Unlock()

	a, b := net.Pipe()
	defer a.Close()
	done := make(chan error, 1)
	go func() { done <- f.n.pump(b, make(chan struct{})) }()
	br := bufio.NewReader(a)
	if h, err := ReadFrame(br, DefaultMaxFrame); err != nil || h.Type != FrameHello {
		t.Fatalf("hello: %+v, %v", h, err)
	}
	w := Frame{Type: FrameWelcome, Seq: 0, Commit: 3, Payload: handshakePayload("addr")}
	if err := WriteFrame(a, w); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "welcome processed", func() bool { return f.n.PrimaryAddr() == "addr" })
	f.n.mu.Lock()
	ck := f.n.commitKnown
	f.n.mu.Unlock()
	if ck != 7 {
		t.Fatalf("commitKnown regressed to %d, want 7", ck)
	}
	a.Close()
	<-done
}
