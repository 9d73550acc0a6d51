package qss

import (
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/oem"
	"repro/internal/repl"
	"repro/internal/timestamp"
)

// TestIncrementalParityAcrossFailover is the acceptance scenario from
// the issue: with incremental matching on, a replicated primary polls a
// mutating source, dies mid-stream, the follower is promoted and adopts
// the subscription, and polling continues — and the combined
// notification stream is byte-identical to full evaluation of the filter
// on a plain service fed the exact same source states and poll times.
// Replica promotion loses no notification and invents none.
func TestIncrementalParityAcrossFailover(t *testing.T) {
	src, ids := paperSource(t)

	// Reference: a plain service, its notifications recomputed by full
	// evaluation after each poll.
	ref := NewService(nil)
	if err := ref.Subscribe(replTestSub(src)); err != nil {
		t.Fatal(err)
	}

	// Primary and follower.
	svcP, nodeP := openReplService(t, t.TempDir(), repl.Config{ID: "p"}, nil)
	defer nodeP.Close()
	if err := nodeP.Promote(); err != nil {
		t.Fatal(err)
	}
	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer replLn.Close()
	go nodeP.Serve(replLn)

	svcF, nodeF := openReplService(t, t.TempDir(), repl.Config{
		ID:            "f",
		RedialInitial: 10 * time.Millisecond,
		RedialMax:     100 * time.Millisecond,
	}, nil)
	defer nodeF.Close()
	replAddr := replLn.Addr().String()
	if err := nodeF.Follow(func() (net.Conn, error) { return net.Dial("tcp", replAddr) }); err != nil {
		t.Fatal(err)
	}

	if err := svcP.Subscribe(replTestSub(src)); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(41))
	prices := []oem.NodeID{ids.Price, ids.JantaPrice}
	rests := []oem.NodeID{ids.Bangkok, ids.Janta}
	base := timestamp.MustParse("1Jan97")
	var got, want []string

	pollBoth := func(active *Service, round int) {
		t.Helper()
		mutateRandom(t, rng, src, ids, &prices, &rests)
		at := base.Add(time.Duration(round) * time.Hour)
		nAct, errAct := active.Poll("Restaurants", at)
		_, errRef := ref.Poll("Restaurants", at)
		if (errAct == nil) != (errRef == nil) {
			t.Fatalf("round %d: err mismatch: active=%v ref=%v", round, errAct, errRef)
		}
		got = append(got, renderNotif(nAct))
		want = append(want, renderNotif(fullNotification(t, ref, "Restaurants")))
	}

	for round := 0; round < 8; round++ {
		pollBoth(svcP, round)
	}

	// The follower must have replicated the whole stream before the
	// primary dies (ack mode none gives no quorum guarantee, so wait).
	qssWaitFor(t, "follower catch-up", func() bool {
		_, times, err := svcF.History("Restaurants")
		return err == nil && len(times) == 8
	})

	// Failover: primary dies, follower is promoted and adopts the
	// subscription (the incremental fingerprint is recomputed on
	// adoption), polling resumes against the same source.
	if err := nodeP.Close(); err != nil {
		t.Fatal(err)
	}
	if err := nodeF.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := svcF.Subscribe(replTestSub(src)); err != nil {
		t.Fatalf("adopting on promoted follower: %v", err)
	}
	for round := 8; round < 16; round++ {
		pollBoth(svcF, round)
	}

	for i := range got {
		if got[i] != want[i] {
			t.Errorf("poll %d notification mismatch\nincremental/replicated:\n%s\nreference:\n%s", i, got[i], want[i])
		}
	}
	delivered := 0
	for _, w := range want {
		if w != "<none>" {
			delivered++
		}
	}
	if delivered == 0 {
		t.Error("reference delivered no notifications (test is vacuous)")
	}
}
