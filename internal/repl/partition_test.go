package repl

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
)

// cluster wires three nodes onto a faults.Net, each serving replication
// on its own host name and dialing whatever the current target is.
type cluster struct {
	nw     *faults.Net
	mu     sync.Mutex
	target string
}

func (c *cluster) setTarget(host string) {
	c.mu.Lock()
	c.target = host
	c.mu.Unlock()
}

func (c *cluster) dialer(from string) Dialer {
	return func() (net.Conn, error) {
		c.mu.Lock()
		to := c.target
		c.mu.Unlock()
		return c.nw.Dial(from, to)
	}
}

func (c *cluster) serve(t *testing.T, host string, n *Node) {
	t.Helper()
	ln, err := c.nw.Listen(host)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go n.Serve(ln)
}

// TestPartitionFailoverAndRecovery runs the full runbook on a partitioned
// 3-node cluster: the isolated primary cannot acknowledge writes, a
// survivor is promoted under a new epoch, the second follower re-points,
// and after healing the stale primary is demoted, its divergent
// (unacknowledged) tail is discarded via snapshot reset, and the cluster
// reconverges on identical histories.
func TestPartitionFailoverAndRecovery(t *testing.T) {
	c := &cluster{nw: faults.NewNet(1), target: "p"}
	cfg := func(id string) Config {
		return Config{
			ID: id, Ack: AckQuorum, Replicas: 2,
			AckTimeout:     200 * time.Millisecond,
			HeartbeatEvery: 10 * time.Millisecond,
			IdleTimeout:    250 * time.Millisecond,
			RedialInitial:  10 * time.Millisecond,
			RedialMax:      50 * time.Millisecond,
		}
	}
	p := newTestNode(t, cfg("p"))
	f1 := newTestNode(t, cfg("f1"))
	f2 := newTestNode(t, cfg("f2"))
	c.serve(t, "p", p.n)
	c.serve(t, "f1", f1.n)
	c.serve(t, "f2", f2.n)

	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := f1.n.Follow(c.dialer("f1")); err != nil {
		t.Fatal(err)
	}
	if err := f2.n.Follow(c.dialer("f2")); err != nil {
		t.Fatal(err)
	}

	p.applySteps("db", 0, 5)
	waitFor(t, "initial replication", func() bool {
		return f1.n.Status().Applied == 5 && f2.n.Status().Applied == 5
	})

	// Isolate the primary from both followers (both directions).
	c.nw.CutBoth("p", "f1")
	c.nw.CutBoth("p", "f2")

	// Writes on the isolated primary are appended locally but can never
	// reach quorum: they stay unacknowledged — the divergent tail.
	for i := 5; i < 7; i++ {
		s := testStep(i)
		if _, err := p.n.ApplyStep("db", s.At, s.Ops); !errors.Is(err, ErrAckTimeout) {
			t.Fatalf("isolated apply %d: %v", i, err)
		}
	}
	if st := p.n.Status(); st.Applied != 7 || st.Commit != 5 {
		t.Fatalf("isolated primary status: %+v", st)
	}

	// Failover: promote f2, re-point f1 at it.
	if err := f2.n.Promote(); err != nil {
		t.Fatal(err)
	}
	c.setTarget("f2")
	newEpoch := f2.n.Epoch()
	if newEpoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", newEpoch)
	}
	waitFor(t, "f1 re-pointed", func() bool {
		st := f1.n.Status()
		return st.Epoch == newEpoch && st.Applied == 5
	})

	// The new primary takes writes; quorum (1 of Replicas=2) is f1.
	for i := 0; i < 3; i++ {
		s := testStep(10 + i)
		if _, err := f2.n.ApplyStep("db", s.At, s.Ops); err != nil {
			t.Fatalf("post-failover apply %d: %v", i, err)
		}
	}
	waitFor(t, "f1 catch-up on new primary", func() bool { return f1.n.Status().Applied == 8 })

	// Heal the partition and run the old primary through the runbook:
	// demote, then follow the new primary. Its hello exposes the divergent
	// tail (seq 7 under the old epoch), so it is reset from a snapshot.
	c.nw.HealAll()
	p.n.Demote()
	s := testStep(99)
	if _, err := p.n.ApplyStep("db", s.At, s.Ops); !errors.Is(err, ErrNotPrimary) {
		t.Fatalf("demoted apply: %v", err)
	}
	if err := p.n.Follow(c.dialer("p")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "old primary reconverged", func() bool {
		st := p.n.Status()
		return st.Epoch == newEpoch && st.Applied == 8 && st.LagSeq == 0
	})

	requireSameDB(t, f2.state, f1.state, "db")
	requireSameDB(t, f2.state, p.state, "db")

	// The divergent steps (5, 6) must be gone from the reset node: its
	// history now ends with the new primary's last step.
	pd, err := p.state.GetDOEM("db")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pd.LastStep(), testStep(12).At; !got.Equal(want) {
		t.Fatalf("reset node last step = %v, want %v", got, want)
	}
}

// TestStalePrimaryFencedOnContact: a deposed primary that never heard
// about the new epoch is fenced the moment a higher-epoch peer contacts
// it, and rejects writes with ErrFenced from then on.
func TestStalePrimaryFencedOnContact(t *testing.T) {
	c := &cluster{nw: faults.NewNet(2), target: "p"}
	cfg := func(id string) Config {
		return Config{
			ID:            id,
			AckTimeout:    100 * time.Millisecond,
			RedialInitial: 10 * time.Millisecond,
			RedialMax:     50 * time.Millisecond,
		}
	}
	p := newTestNode(t, cfg("p"))
	f := newTestNode(t, cfg("f"))
	c.serve(t, "p", p.n)

	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := f.n.Follow(c.dialer("f")); err != nil {
		t.Fatal(err)
	}
	p.applySteps("db", 0, 3)
	waitFor(t, "replication", func() bool { return f.n.Status().Applied == 3 })

	// The follower is promoted behind the old primary's back (e.g. a
	// partitioned operator decision): epoch 2.
	f.n.StopFollow()
	if err := f.n.Promote(); err != nil {
		t.Fatal(err)
	}
	if p.n.Role() != RolePrimary {
		t.Fatal("old primary deposed too early")
	}

	// First contact from the new era — here, the new primary demoted back
	// to follower and dialing the old one, the smallest such messenger —
	// fences the old primary.
	f.n.Demote()
	if err := f.n.Follow(c.dialer("f")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "fencing on contact", func() bool { return p.n.Status().Fenced })
	if got := p.n.Epoch(); got != f.n.Epoch() {
		t.Fatalf("old primary epoch %d, new era %d", got, f.n.Epoch())
	}
	s := testStep(3)
	if _, err := p.n.ApplyStep("db", s.At, s.Ops); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced apply: %v", err)
	}
}
