package repl

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
)

const failoverSteps = 8

// failoverPrimaryCfg: quorum of the 2-node cluster = the one follower.
func failoverPrimaryCfg() Config {
	return Config{ID: "p", Ack: AckQuorum, Replicas: 1, AckTimeout: 150 * time.Millisecond}
}

// dialOnce returns a Dialer connecting to p through wrap exactly once;
// every later dial fails — the primary is "dead" after the stream severs.
func dialOnce(p *Node, wrap func(net.Conn) net.Conn) Dialer {
	var used bool
	return func() (net.Conn, error) {
		if used {
			return nil, errors.New("primary dead")
		}
		used = true
		a, b := net.Pipe()
		if wrap != nil {
			b = wrap(b)
		}
		go p.HandleConn(b)
		return a, nil
	}
}

// countConn counts bytes written through it.
type countConn struct {
	net.Conn
	n *int64
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	atomic.AddInt64(c.n, int64(n))
	return n, err
}

// measureStreamBytes runs the scenario with no fault and returns how many
// bytes the primary writes to replicate failoverSteps records — the offset
// space the crash test sweeps.
func measureStreamBytes(t *testing.T) int64 {
	t.Helper()
	p := newTestNode(t, failoverPrimaryCfg())
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	f := newTestNode(t, Config{ID: "f"})
	var written int64
	dial := dialOnce(p.n, func(c net.Conn) net.Conn { return countConn{Conn: c, n: &written} })
	if err := f.n.Follow(dial); err != nil {
		t.Fatal(err)
	}
	p.applySteps("db", 0, failoverSteps)
	waitFor(t, "clean catch-up", func() bool { return f.n.Status().Applied == failoverSteps })
	return atomic.LoadInt64(&written)
}

// TestFailoverByteExact is the issue's core robustness property: kill the
// primary at an arbitrary byte offset mid-stream, promote the follower,
// and the promoted node's history must be byte-identical to the
// acknowledged prefix (acked writes survive; the follower's oplog is a
// verbatim byte prefix of the dead primary's).
func TestFailoverByteExact(t *testing.T) {
	total := measureStreamBytes(t)
	if total <= 0 {
		t.Fatalf("measured stream length %d", total)
	}
	// Evenly spaced cuts up to and including the whole stream. The measured
	// length varies a little from run to run with frame timing; a fixed cut
	// count keeps the set of subtests the same size regardless.
	cuts := int64(25)
	if testing.Short() {
		cuts = 7
	}
	offsets := []int64{0, 1, 2, 3}
	for i := int64(1); i <= cuts; i++ {
		offsets = append(offsets, total*i/cuts)
	}
	for _, off := range offsets {
		off := off
		t.Run(fmt.Sprintf("cut%04d", off), func(t *testing.T) { runFailoverAt(t, off) })
	}
}

func runFailoverAt(t *testing.T, cutAt int64) {
	p := newTestNode(t, failoverPrimaryCfg())
	if err := p.n.Promote(); err != nil {
		t.Fatal(err)
	}
	oldEpoch := p.n.Epoch()
	f := newTestNode(t, Config{ID: "f"})
	dial := dialOnce(p.n, func(c net.Conn) net.Conn { return faults.CutAfterBytes(c, cutAt) })
	if err := f.n.Follow(dial); err != nil {
		t.Fatal(err)
	}

	// Drive writes until one goes unacknowledged (the cut) or all land.
	var ackedSeq uint64
	var applyErr error
	for i := 0; i < failoverSteps; i++ {
		s := testStep(i)
		seq, err := p.n.ApplyStep("db", s.At, s.Ops)
		if err != nil {
			if !errors.Is(err, ErrAckTimeout) {
				t.Fatalf("apply step %d: %v", i, err)
			}
			applyErr = err
			break
		}
		ackedSeq = seq
	}
	if applyErr != nil {
		// The severed session must unwind on the primary too.
		waitFor(t, "session teardown", func() bool { return p.n.Status().Followers == 0 })
	}

	// Crash the primary and capture its on-disk history.
	p.n.Close()
	pBytes := oplogBytes(t, p.dir)

	// Promote the survivor: new epoch, its log becomes authoritative. The
	// new epoch outranks the dead primary's as soon as the follower ever
	// heard from it (any frame carries the epoch); with zero contact — cut
	// before the Welcome — there is nothing to outrank and nothing acked.
	preEpoch := f.n.Epoch()
	hadContact := preEpoch >= oldEpoch || f.n.Status().Applied > 0
	if err := f.n.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := f.n.Epoch(); got <= preEpoch {
		t.Fatalf("promoted epoch %d not above %d", got, preEpoch)
	}
	if hadContact && f.n.Epoch() <= oldEpoch {
		t.Fatalf("promoted epoch %d not above deposed primary's %d", f.n.Epoch(), oldEpoch)
	}
	if ackedSeq > 0 && !hadContact {
		t.Fatalf("cut %d: records acked without any follower contact", cutAt)
	}
	fBytes := oplogBytes(t, f.dir)

	// Byte-identity: the follower's oplog is a verbatim prefix of the dead
	// primary's, and it contains at least every acknowledged record.
	if !bytes.HasPrefix(pBytes, fBytes) {
		t.Fatalf("cut %d: follower oplog (%d bytes) is not a byte prefix of primary's (%d bytes)",
			cutAt, len(fBytes), len(pBytes))
	}
	st := f.n.Status()
	if st.Applied < ackedSeq {
		t.Fatalf("cut %d: promoted node applied=%d < acknowledged %d", cutAt, st.Applied, ackedSeq)
	}
	if st.Commit != st.Applied {
		t.Fatalf("cut %d: promoted commit=%d applied=%d", cutAt, st.Commit, st.Applied)
	}
	if ackedSeq > 0 {
		d, err := f.state.GetDOEM("db")
		if err != nil {
			t.Fatalf("cut %d: %v", cutAt, err)
		}
		want := testStep(int(ackedSeq) - 1).At
		if d.LastStep().Before(want) {
			t.Fatalf("cut %d: promoted history ends %v, acknowledged through %v", cutAt, d.LastStep(), want)
		}
	}

	// The new primary accepts writes under the new epoch (ack mode none on
	// this node: it has no followers yet).
	s := testStep(failoverSteps)
	if _, err := f.n.ApplyStep("db", s.At, s.Ops); err != nil {
		t.Fatalf("cut %d: write on promoted node: %v", cutAt, err)
	}
}
