package repl

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/change"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wal"
)

// fixedClock is a manually-advanced Clock: the tests' stand-in for
// qss.SimClock (same shape, no cross-package dependency).
type fixedClock struct {
	mu sync.Mutex
	t  timestamp.Time
}

func (c *fixedClock) Now() timestamp.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fixedClock) Set(t timestamp.Time) {
	c.mu.Lock()
	c.t = t
	c.mu.Unlock()
}

// testStep builds the i-th step of a deterministic history: create an
// object with a name child and link it under the root.
func testStep(i int) change.Step {
	base := oem.NodeID(1 + 2*i)
	return change.Step{
		At: timestamp.FromUnix(int64(1000 + i)),
		Ops: change.Set{
			change.CreNode{Node: base + 1, Value: value.Complex()},
			change.CreNode{Node: base + 2, Value: value.Str("Restaurant")},
			change.AddArc{Parent: 1, Label: "restaurant", Child: base + 1},
			change.AddArc{Parent: base + 1, Label: "name", Child: base + 2},
		},
	}
}

// testNode bundles a Node with its state and data dir for reopening.
type testNode struct {
	t     *testing.T
	dir   string
	n     *Node
	state *StoreState
}

func openTestNode(t *testing.T, dir string, cfg Config) *testNode {
	t.Helper()
	if cfg.WAL == nil {
		cfg.WAL = &wal.Options{Sync: wal.SyncNever}
	}
	st := NewStoreState()
	n, err := Open(dir, st, cfg)
	if err != nil {
		t.Fatalf("open %s: %v", cfg.ID, err)
	}
	tn := &testNode{t: t, dir: dir, n: n, state: st}
	t.Cleanup(func() { tn.n.Close() })
	return tn
}

func newTestNode(t *testing.T, cfg Config) *testNode {
	return openTestNode(t, t.TempDir(), cfg)
}

// applySteps applies steps [from, to) to the named db on the primary,
// failing the test on any error.
func (tn *testNode) applySteps(name string, from, to int) {
	tn.t.Helper()
	for i := from; i < to; i++ {
		s := testStep(i)
		if _, err := tn.n.ApplyStep(name, s.At, s.Ops); err != nil {
			tn.t.Fatalf("apply step %d: %v", i, err)
		}
	}
}

// pipeDialer returns a Dialer that connects to p over an in-memory pipe.
func pipeDialer(p *Node) Dialer {
	return func() (net.Conn, error) {
		a, b := net.Pipe()
		go p.HandleConn(b)
		return a, nil
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// requireSameDB asserts that both stores hold byte-for-byte equal DOEM
// histories for name — which makes every query, including `<at T>`
// time travel, agree at every timestamp.
func requireSameDB(t *testing.T, a, b *StoreState, name string) {
	t.Helper()
	da, err := a.GetDOEM(name)
	if err != nil {
		t.Fatalf("GetDOEM(a, %s): %v", name, err)
	}
	db, err := b.GetDOEM(name)
	if err != nil {
		t.Fatalf("GetDOEM(b, %s): %v", name, err)
	}
	if !da.Equal(db) {
		t.Fatalf("databases %q diverged", name)
	}
}

// oplogBytes concatenates a node dir's oplog segment files in order — the
// raw replicated history for byte-identity checks.
func oplogBytes(t *testing.T, dir string) []byte {
	t.Helper()
	seg := filepath.Join(dir, "oplog")
	ents, err := os.ReadDir(seg)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if filepath.Ext(e.Name()) == ".seg" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(seg, name))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(data)
	}
	return buf.Bytes()
}

func TestBasicReplication(t *testing.T) {
	p := newTestNode(t, Config{ID: "p"})
	f := newTestNode(t, Config{ID: "f"})
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	if f.n.Role() != RoleFollower || p.n.Role() != RolePrimary {
		t.Fatal("roles not set")
	}
	if err := f.n.Follow(pipeDialer(p.n)); err != nil {
		t.Fatal(err)
	}

	p.applySteps("db", 0, 50)
	waitFor(t, "follower catch-up", func() bool { return f.n.Status().Applied == 50 })
	waitFor(t, "commit watermark", func() bool { return f.n.Status().Commit == 50 })

	requireSameDB(t, p.state, f.state, "db")
	pb, fb := oplogBytes(t, p.dir), oplogBytes(t, f.dir)
	if !bytes.Equal(pb, fb) {
		t.Fatalf("oplogs differ: primary %d bytes, follower %d bytes", len(pb), len(fb))
	}
	if st := f.n.Status(); st.LagSeq != 0 || st.PrimaryTip != 50 {
		t.Fatalf("follower status: %+v", st)
	}
	waitFor(t, "session registered", func() bool { return p.n.Status().Followers == 1 })

	// Writes on the follower are rejected.
	s := testStep(50)
	if _, err := f.n.ApplyStep("db", s.At, s.Ops); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("follower write: %v", err)
	}
}

// TestConcurrentAppliesGroupCommit: Applies from many goroutines share
// oplog appends (group commit) yet every caller gets its own sequence,
// each writer's records stay in its call order, a follower's oplog is
// byte-identical, and a restart rebuilds the same state.
func TestConcurrentAppliesGroupCommit(t *testing.T) {
	p := newTestNode(t, Config{ID: "p", WAL: &wal.Options{Sync: wal.SyncAlways}})
	f := newTestNode(t, Config{ID: "f"})
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := f.n.Follow(pipeDialer(p.n)); err != nil {
		t.Fatal(err)
	}
	const writers, steps = 8, 30
	seqs := make([][]uint64, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := string(rune('a' + w))
			for i := 0; i < steps; i++ {
				s := testStep(i)
				seq, err := p.n.ApplyStep(name, s.At, s.Ops)
				if err != nil {
					t.Errorf("writer %d step %d: %v", w, i, err)
					return
				}
				seqs[w] = append(seqs[w], seq)
			}
		}()
	}
	wg.Wait()
	seen := make(map[uint64]bool)
	for w, ss := range seqs {
		for i, seq := range ss {
			if seen[seq] || seq == 0 || seq > writers*steps || (i > 0 && seq <= ss[i-1]) {
				t.Fatalf("writer %d got seqs %v", w, ss)
			}
			seen[seq] = true
		}
	}
	waitFor(t, "follower catch-up", func() bool { return f.n.Status().Applied == writers*steps })
	if pb, fb := oplogBytes(t, p.dir), oplogBytes(t, f.dir); !bytes.Equal(pb, fb) {
		t.Fatalf("oplogs differ: primary %d bytes, follower %d bytes", len(pb), len(fb))
	}
	p.n.Close()
	re := openTestNode(t, p.dir, Config{ID: "p"})
	for w := 0; w < writers; w++ {
		name := string(rune('a' + w))
		requireSameDB(t, re.state, f.state, name)
	}
}

func TestAckModes(t *testing.T) {
	for _, mode := range []AckMode{AckOne, AckQuorum} {
		t.Run(mode.String(), func(t *testing.T) {
			p := newTestNode(t, Config{ID: "p", Ack: mode, Replicas: 1, AckTimeout: 100 * time.Millisecond})
			if err := p.n.Promote(); err != nil {
				t.Fatal(err)
			}
			// No follower connected: the write lands locally but is not
			// acknowledged.
			s := testStep(0)
			if _, err := p.n.ApplyStep("db", s.At, s.Ops); !errors.Is(err, ErrAckTimeout) {
				t.Fatalf("no-follower apply: %v", err)
			}
			f := newTestNode(t, Config{ID: "f"})
			if err := f.n.Follow(pipeDialer(p.n)); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "catch-up", func() bool { return f.n.Status().Applied == 1 })
			p.applySteps("db", 1, 5)
			if got := p.n.Status().Commit; got != 5 {
				t.Fatalf("commit = %d, want 5", got)
			}
		})
	}
}

func TestParseAckMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want AckMode
	}{{"none", AckNone}, {"one", AckOne}, {"quorum", AckQuorum}} {
		got, err := ParseAckMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseAckMode(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseAckMode("all"); err == nil {
		t.Fatal("ParseAckMode accepted garbage")
	}
}

func TestFollowerRestartCatchUp(t *testing.T) {
	p := newTestNode(t, Config{ID: "p"})
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	f := openTestNode(t, fdir, Config{ID: "f"})
	if err := f.n.Follow(pipeDialer(p.n)); err != nil {
		t.Fatal(err)
	}
	p.applySteps("db", 0, 20)
	waitFor(t, "first catch-up", func() bool { return f.n.Status().Applied == 20 })
	f.n.Close()

	// Twenty more records land while the follower is down.
	p.applySteps("db", 20, 40)

	f2 := openTestNode(t, fdir, Config{ID: "f"})
	if got := f2.n.Status().Applied; got != 20 {
		t.Fatalf("recovered applied = %d, want 20", got)
	}
	if err := f2.n.Follow(pipeDialer(p.n)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resume catch-up", func() bool { return f2.n.Status().Applied == 40 })
	requireSameDB(t, p.state, f2.state, "db")
	if !bytes.Equal(oplogBytes(t, p.dir), oplogBytes(t, fdir)) {
		t.Fatal("oplogs differ after restart catch-up")
	}
}

func TestSnapshotCatchUp(t *testing.T) {
	p := newTestNode(t, Config{ID: "p"})
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	p.applySteps("db", 0, 30)
	// Compact the primary's oplog so seq 1..30 are only available as a
	// checkpoint; a fresh follower must bootstrap from the snapshot.
	if err := p.n.Compact(); err != nil {
		t.Fatal(err)
	}
	p.applySteps("db", 30, 40)

	f := newTestNode(t, Config{ID: "f"})
	if err := f.n.Follow(pipeDialer(p.n)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "snapshot catch-up", func() bool { return f.n.Status().Applied == 40 })
	requireSameDB(t, p.state, f.state, "db")

	// The follower survives its own restart from the reset oplog.
	f.n.Close()
	f2 := openTestNode(t, f.dir, Config{ID: "f"})
	if got := f2.n.Status().Applied; got != 40 {
		t.Fatalf("applied after restart = %d, want 40", got)
	}
	requireSameDB(t, p.state, f2.state, "db")
}

// TestFencingByHello deposes a primary via a higher-epoch handshake: its
// subsequent appends must be rejected with ErrFenced.
func TestFencingByHello(t *testing.T) {
	p := newTestNode(t, Config{ID: "p"})
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	p.applySteps("db", 0, 3)

	a, b := net.Pipe()
	defer a.Close()
	go p.n.HandleConn(b)
	hello := Frame{Type: FrameHello, Epoch: p.n.Epoch() + 5, Seq: 0, Payload: handshakePayload("new-era")}
	if err := WriteFrame(a, hello); err != nil {
		t.Fatal(err)
	}
	rej, err := ReadFrame(bufio.NewReader(a), DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if rej.Type != FrameReject || rej.Epoch != hello.Epoch {
		t.Fatalf("got %+v, want reject at epoch %d", rej, hello.Epoch)
	}
	if p.n.Role() != RoleFollower || p.n.Epoch() != hello.Epoch {
		t.Fatalf("primary not deposed: role=%v epoch=%d", p.n.Role(), p.n.Epoch())
	}
	s := testStep(3)
	if _, err := p.n.ApplyStep("db", s.At, s.Ops); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed apply: %v", err)
	}
	if !p.n.Status().Fenced {
		t.Fatal("status not fenced")
	}
}

// TestFencingByReject deposes a primary through the ack channel of a live
// session — the path a stale primary hits when its follower has moved to
// a newer epoch mid-stream.
func TestFencingByReject(t *testing.T) {
	p := newTestNode(t, Config{ID: "p"})
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	a, b := net.Pipe()
	defer a.Close()
	go p.n.HandleConn(b)
	br := bufio.NewReader(a)
	hello := Frame{Type: FrameHello, Epoch: p.n.Epoch(), Seq: 0, Payload: handshakePayload("f")}
	if err := WriteFrame(a, hello); err != nil {
		t.Fatal(err)
	}
	if w, err := ReadFrame(br, DefaultMaxFrame); err != nil || w.Type != FrameWelcome {
		t.Fatalf("welcome: %+v %v", w, err)
	}
	newEpoch := p.n.Epoch() + 1
	if err := WriteFrame(a, Frame{Type: FrameReject, Epoch: newEpoch}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fencing", func() bool { return p.n.Status().Fenced })
	if p.n.Epoch() != newEpoch {
		t.Fatalf("epoch = %d, want %d", p.n.Epoch(), newEpoch)
	}
	s := testStep(0)
	if _, err := p.n.ApplyStep("db", s.At, s.Ops); !errors.Is(err, ErrFenced) {
		t.Fatalf("deposed apply: %v", err)
	}
}

// TestEpochPersistence: epochs survive restart, and Promote always moves
// strictly above everything the node has seen.
func TestEpochPersistence(t *testing.T) {
	dir := t.TempDir()
	n1 := openTestNode(t, dir, Config{ID: "n"})
	if err := n1.n.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := n1.n.Epoch(); got != 1 {
		t.Fatalf("epoch after promote = %d", got)
	}
	n1.applySteps("db", 0, 2)
	n1.n.Close()

	n2 := openTestNode(t, dir, Config{ID: "n"})
	if got := n2.n.Epoch(); got != 1 {
		t.Fatalf("epoch after reopen = %d", got)
	}
	if got := n2.n.Role(); got != RoleFollower {
		t.Fatalf("role after reopen = %v (restart must not self-promote)", got)
	}
	if err := n2.n.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := n2.n.Epoch(); got != 2 {
		t.Fatalf("epoch after second promote = %d", got)
	}
}

// TestReadReplicaTimeTravel drives a history through replication under a
// deterministic clock and checks that the replica answers `<at T>` reads
// identically to the primary within its reported staleness bound.
func TestReadReplicaTimeTravel(t *testing.T) {
	clock := &fixedClock{}
	clock.Set(timestamp.FromUnix(500))
	p := newTestNode(t, Config{ID: "p", Clock: clock})
	f := newTestNode(t, Config{ID: "f", Clock: clock})
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := f.n.Follow(pipeDialer(p.n)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		clock.Set(timestamp.FromUnix(int64(1000 + i)))
		s := testStep(i)
		if _, err := p.n.ApplyStep("db", s.At, s.Ops); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "catch-up", func() bool { return f.n.Status().Applied == 5 })

	st := f.n.Status()
	if st.LagSeq != 0 {
		t.Fatalf("lag = %d, want 0", st.LagSeq)
	}
	if !st.AppliedAt.Equal(timestamp.FromUnix(1004)) {
		t.Fatalf("appliedAt = %v, want t=1004", st.AppliedAt)
	}

	pd, err := p.state.GetDOEM("db")
	if err != nil {
		t.Fatal(err)
	}
	fd, err := f.state.GetDOEM("db")
	if err != nil {
		t.Fatal(err)
	}
	// Time-travel parity at every step boundary (and before history).
	for i := -1; i < 5; i++ {
		at := timestamp.FromUnix(int64(1000 + i))
		ps, fs := pd.SnapshotAt(at), fd.SnapshotAt(at)
		pn, fn := ps.Nodes(), fs.Nodes()
		if len(pn) != len(fn) {
			t.Fatalf("<at %v>: %d nodes on primary, %d on replica", at, len(pn), len(fn))
		}
	}
	if !pd.Equal(fd) {
		t.Fatalf("replica history diverged")
	}

	// Now lag the replica: stop following, write more on the primary. The
	// replica's answers must equal the primary's *as of its applied seq* —
	// the staleness contract — and its status must expose the bound.
	f.n.StopFollow()
	asOf := f.n.Status().Applied
	clock.Set(timestamp.FromUnix(2000))
	p.applySteps("db", 5, 8)
	fd2, err := f.state.GetDOEM("db")
	if err != nil {
		t.Fatal(err)
	}
	if got := fd2.LastStep(); !got.Equal(timestamp.FromUnix(1004)) {
		t.Fatalf("replica last step = %v, want 1004 (stale reads stay at applied=%d)", got, asOf)
	}
	if err := f.n.Follow(pipeDialer(p.n)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "re-catch-up", func() bool { return f.n.Status().Applied == 8 })
	requireSameDB(t, p.state, f.state, "db")
}
