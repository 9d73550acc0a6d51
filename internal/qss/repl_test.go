package qss

import (
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/repl"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wrapper"
)

// replTestSub subscribes the paper's standing query over the guide source.
func replTestSub(src wrapper.Source) Subscription {
	return Subscription{
		Name:       "Restaurants",
		SourceName: "guide",
		Source:     src,
		Polling:    `select guide.restaurant`,
		Filter:     `select Restaurants.restaurant<cre at T> where T > t[-1]`,
	}
}

// openReplService builds a Service whose polls replicate through a
// repl.Node rooted at dir.
func openReplService(t *testing.T, dir string, cfg repl.Config, notify func(Notification)) (*Service, *repl.Node) {
	t.Helper()
	svc := NewService(notify)
	node, err := repl.Open(dir, NewReplState(svc), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.EnableReplication(node); err != nil {
		node.Close()
		t.Fatal(err)
	}
	return svc, node
}

func qssWaitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestReplicatedServiceLifecycle drives a replicated service through the
// full local lifecycle: write gating by role (with packaging rollback),
// polls on a promoted node, unsubscribe demoting to a replica,
// re-adoption, a replicated truncation, and a deterministic restart —
// including compactions, so the ReplState snapshot/restore path runs.
func TestReplicatedServiceLifecycle(t *testing.T) {
	dir := t.TempDir()
	src, ids := paperSource(t)
	var delivered []Notification
	svc, node := openReplService(t, dir, repl.Config{ID: "a"}, func(n Notification) {
		delivered = append(delivered, n)
	})
	defer node.Close()

	if err := svc.Subscribe(replTestSub(src)); err != nil {
		t.Fatal(err)
	}

	// Not yet promoted: the poll is refused by the node and must leave no
	// trace — in particular the stable-id remap and id high-water mark the
	// packaging step allocated must be rolled back.
	t1 := timestamp.MustParse("30Dec96")
	if _, err := svc.Poll("Restaurants", t1); !errors.Is(err, repl.ErrNotPrimary) {
		t.Fatalf("poll before promote: %v", err)
	}
	if _, times, err := svc.History("Restaurants"); err != nil || len(times) != 0 {
		t.Fatalf("refused poll left history: times=%d err=%v", len(times), err)
	}

	// Promoted: the same poll must now succeed identically.
	if err := node.Promote(); err != nil {
		t.Fatal(err)
	}
	n1, err := svc.Poll("Restaurants", t1)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == nil || n1.Result.Len() != 2 {
		t.Fatalf("t1 notification: %+v", n1)
	}

	// Mutate the source and poll again.
	err = src.Mutate(func(db *oem.Database) error {
		r := db.CreateNode(value.Complex())
		nm := db.CreateNode(value.Str("Hakata"))
		if err := db.AddArc(ids.Guide, "restaurant", r); err != nil {
			return err
		}
		return db.AddArc(r, "name", nm)
	})
	if err != nil {
		t.Fatal(err)
	}
	t2 := timestamp.MustParse("1Jan97")
	n2, err := svc.Poll("Restaurants", t2)
	if err != nil {
		t.Fatal(err)
	}
	if n2 == nil || n2.Result.Len() != 1 {
		t.Fatalf("t2 notification: %+v", n2)
	}
	if len(delivered) != 2 {
		t.Fatalf("delivered %d notifications, want 2", len(delivered))
	}

	// Compact: the ReplState snapshot becomes the oplog checkpoint.
	if err := node.Compact(); err != nil {
		t.Fatal(err)
	}

	// Unsubscribe demotes to an unclaimed replica: history stays
	// readable, polling is refused, re-subscribing adopts it back.
	if err := svc.Unsubscribe("Restaurants"); err != nil {
		t.Fatal(err)
	}
	if got := svc.List(); len(got) != 1 || got[0] != "Restaurants" {
		t.Fatalf("replica not listed: %v", got)
	}
	if _, err := svc.Poll("Restaurants", timestamp.MustParse("2Jan97")); !errors.Is(err, ErrNoSuchSub) {
		t.Fatalf("poll of replica: %v", err)
	}
	if err := svc.Subscribe(replTestSub(src)); err != nil {
		t.Fatal(err)
	}
	t3 := timestamp.MustParse("2Jan97")
	if _, err := svc.Poll("Restaurants", t3); err != nil {
		t.Fatal(err)
	}

	// Truncation is a logged record, and compacts the oplog: the restart
	// below replays it from the checkpoint.
	applied := node.Status().Applied
	if err := svc.Truncate("Restaurants", t1); err != nil {
		t.Fatal(err)
	}
	if got := node.Status().Applied; got != applied+1 {
		t.Fatalf("truncation applied seq %d, want %d", got, applied+1)
	}
	d1, times1, err := svc.History("Restaurants")
	if err != nil {
		t.Fatal(err)
	}
	if len(times1) != 2 || !times1[0].Equal(t2) {
		t.Fatalf("poll times after truncation = %v, want [%v %v]", times1, t2, t3)
	}

	// Restart: a fresh service rebuilt from the oplog (checkpoint +
	// records after it) must agree exactly, and the subscription must be
	// adoptable with its t[-i] alignment intact.
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	svc2, node2 := openReplService(t, dir, repl.Config{ID: "a"}, nil)
	defer node2.Close()
	d2, times2, err := svc2.History("Restaurants")
	if err != nil {
		t.Fatal(err)
	}
	if len(times2) != len(times1) {
		t.Fatalf("restart poll times = %d, want %d", len(times2), len(times1))
	}
	for i := range times1 {
		if !times2[i].Equal(times1[i]) {
			t.Fatalf("restart poll time %d = %v, want %v", i, times2[i], times1[i])
		}
	}
	if !d2.Equal(d1) {
		t.Fatal("restarted history differs from original")
	}
	if err := svc2.Subscribe(replTestSub(src)); err != nil {
		t.Fatalf("adopting after restart: %v", err)
	}
	if err := node2.Promote(); err != nil {
		t.Fatal(err)
	}
	// A stale poll time is still refused — continuity survived.
	if _, err := svc2.Poll("Restaurants", t3); !errors.Is(err, ErrStalePoll) {
		t.Fatalf("stale poll after restart: %v", err)
	}
	if _, err := svc2.Poll("Restaurants", timestamp.MustParse("3Jan97")); err != nil {
		t.Fatal(err)
	}
}

// TestPollRacingUnsubscribe: a poll whose record is durable but still
// waiting for its ack quorum when Unsubscribe detaches the subscription
// returns with no error and no notification once acknowledged — the
// record stays in the history, and there is no filter left to evaluate.
func TestPollRacingUnsubscribe(t *testing.T) {
	src, _ := paperSource(t)
	var delivered []Notification
	svc, node := openReplService(t, t.TempDir(), repl.Config{
		ID: "p", Ack: repl.AckOne, Replicas: 1,
	}, func(n Notification) { delivered = append(delivered, n) })
	defer node.Close()
	if err := node.Promote(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go node.Serve(ln)
	if err := svc.Subscribe(replTestSub(src)); err != nil {
		t.Fatal(err)
	}

	errCh := make(chan error, 1)
	notified := make(chan *Notification, 1)
	go func() {
		n, err := svc.Poll("Restaurants", timestamp.MustParse("30Dec96"))
		notified <- n
		errCh <- err
	}()
	qssWaitFor(t, "record appended", func() bool { return node.Status().Applied == 1 })
	if err := svc.Unsubscribe("Restaurants"); err != nil {
		t.Fatal(err)
	}

	// The follower connects only now, acknowledging the record.
	_, fnode := openReplService(t, t.TempDir(), repl.Config{ID: "f"}, nil)
	defer fnode.Close()
	addr := ln.Addr().String()
	if err := fnode.Follow(func() (net.Conn, error) { return net.Dial("tcp", addr) }); err != nil {
		t.Fatal(err)
	}
	if n := <-notified; n != nil {
		t.Errorf("detached poll notified: %+v", n)
	}
	if err := <-errCh; err != nil {
		t.Fatalf("detached poll: %v", err)
	}
	if len(delivered) != 0 {
		t.Fatalf("detached poll delivered %d notifications", len(delivered))
	}
	if _, times, err := svc.History("Restaurants"); err != nil || len(times) != 1 {
		t.Fatalf("detached history: times=%v err=%v", times, err)
	}
}

// replCluster is one primary/replica pair of qss servers over real TCP,
// sharing one source (the same external world).
type replCluster struct {
	src  *wrapper.Mutable
	ids  *guidegen.PaperIDs
	srvP *Server
	srvF *Server
	pn   *repl.Node
	fn   *repl.Node
	// addrP/addrF are the client-facing addresses of primary and
	// follower; the replication stream listens on its own port.
	addrP, addrF string
}

func startReplCluster(t *testing.T, ack repl.AckMode) *replCluster {
	t.Helper()
	src, ids := paperSource(t)
	c := &replCluster{src: src, ids: ids}
	sources := map[string]wrapper.Source{"guide": src}

	lnP, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnF, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	replLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.addrP, c.addrF = lnP.Addr().String(), lnF.Addr().String()

	c.srvP = NewServerWith(sources, RealClock{}, ServerConfig{})
	pn, err := repl.Open(t.TempDir(), NewReplState(c.srvP.Service()), repl.Config{
		ID:         "p",
		Ack:        ack,
		Replicas:   1,
		AckTimeout: 5 * time.Second,
		Advertise:  c.addrP,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.pn = pn
	t.Cleanup(func() { pn.Close() })
	if err := c.srvP.EnableReplication(pn); err != nil {
		t.Fatal(err)
	}
	if err := pn.Promote(); err != nil {
		t.Fatal(err)
	}
	go pn.Serve(replLn)
	t.Cleanup(func() { replLn.Close() })
	go c.srvP.Serve(lnP)
	t.Cleanup(c.srvP.Close)

	c.srvF = NewServerWith(sources, RealClock{}, ServerConfig{})
	fn, err := repl.Open(t.TempDir(), NewReplState(c.srvF.Service()), repl.Config{
		ID:            "f",
		Advertise:     c.addrF,
		RedialInitial: 10 * time.Millisecond,
		RedialMax:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.fn = fn
	t.Cleanup(func() { fn.Close() })
	if err := c.srvF.EnableReplication(fn); err != nil {
		t.Fatal(err)
	}
	replAddr := replLn.Addr().String()
	if err := fn.Follow(func() (net.Conn, error) { return net.Dial("tcp", replAddr) }); err != nil {
		t.Fatal(err)
	}
	go c.srvF.Serve(lnF)
	t.Cleanup(c.srvF.Close)
	return c
}

// TestReplicatedFailoverResume is the issue's acceptance scenario at the
// qss layer: a reconnecting client (qsc -reconnect with fallbacks) is
// subscribed against the primary, the follower replicates the history,
// the primary dies, the follower is promoted, and the client resumes
// against it exactly-once — no duplicate notifications, no lost history,
// poll-time continuity intact.
func TestReplicatedFailoverResume(t *testing.T) {
	c := startReplCluster(t, repl.AckOne)

	// The follower learns the primary's advertised client address from the
	// replication stream handshake; redirects carry it from then on.
	qssWaitFor(t, "follower to learn primary address", func() bool {
		return c.fn.Status().PrimaryAddr == c.addrP
	})

	// A client dialed straight at the replica is redirected to the
	// primary's advertised address, and sees the staleness bound.
	fc, err := Dial(c.addrF)
	if err != nil {
		t.Fatal(err)
	}
	err = fc.Subscribe("X", "guide", "guide", `select guide.restaurant`, `select X.restaurant`, "")
	var re *RedirectError
	if !errors.As(err, &re) || re.Addr != c.addrP {
		t.Fatalf("replica subscribe: %v (want redirect to %s)", err, c.addrP)
	}
	fst, err := fc.Status()
	if err != nil || fst == nil || fst.Role != "follower" {
		t.Fatalf("replica status: %+v, %v", fst, err)
	}
	fc.Close()

	// The robust client with both addresses lands on the primary
	// (redirect-following makes the order irrelevant).
	rc := DialRobustAddrs([]string{c.addrF, c.addrP}, &RobustOptions{
		ReconnectInitial: 10 * time.Millisecond,
		ReconnectMax:     100 * time.Millisecond,
	})
	defer rc.Close()
	sub := replTestSub(nil)
	// The first attempt may land on the follower and come back as a
	// redirect error; the client then redials at the primary, so a retry
	// converges. (qsc retries the same way: the redirect steers the dial.)
	qssWaitFor(t, "subscribe through redirects", func() bool {
		return rc.Subscribe(sub.Name, "guide", sub.SourceName, sub.Polling, sub.Filter, "") == nil
	})
	if err := rc.Poll(sub.Name, "30Dec96"); err != nil {
		t.Fatal(err)
	}
	n1 := <-rc.Notifications()
	if n1.Subscription != sub.Name || !n1.At.Equal(timestamp.MustParse("30Dec96")) {
		t.Fatalf("first notification: %+v", n1)
	}

	// The follower has the acknowledged history (AckOne: the poll was not
	// acknowledged until the follower had it durably).
	pApplied := c.pn.Status().Applied
	if pApplied == 0 {
		t.Fatal("primary applied nothing")
	}
	qssWaitFor(t, "follower catch-up", func() bool { return c.fn.Status().Applied == pApplied })
	if _, times, err := c.srvF.Service().History(sub.Name); err != nil || len(times) != 1 {
		t.Fatalf("replica history: times=%d err=%v", len(times), err)
	}

	// Failover: crash the primary, promote the follower. The client must
	// find the new primary through its fallback list on its own.
	c.pn.Close()
	c.srvP.Close()
	if err := c.fn.Promote(); err != nil {
		t.Fatal(err)
	}

	// New facts appear at the source after the failover.
	err = c.src.Mutate(func(db *oem.Database) error {
		r := db.CreateNode(value.Complex())
		nm := db.CreateNode(value.Str("Hakata"))
		if err := db.AddArc(c.ids.Guide, "restaurant", r); err != nil {
			return err
		}
		return db.AddArc(r, "name", nm)
	})
	if err != nil {
		t.Fatal(err)
	}

	// The poll succeeds once the client has reconnected and re-adopted the
	// subscription on the promoted node. Poll-time continuity proves the
	// replicated history was adopted, not recreated: 1Jan97 is only a
	// valid poll time if 30Dec96 survived the failover.
	qssWaitFor(t, "poll against promoted node", func() bool {
		return rc.Poll(sub.Name, "1Jan97") == nil
	})
	n2 := <-rc.Notifications()
	if !n2.At.Equal(timestamp.MustParse("1Jan97")) {
		t.Fatalf("post-failover notification at %v", n2.At)
	}
	if got := len(n2.Answer.OutLabeled(n2.Answer.Root(), "restaurant")); got != 1 {
		t.Fatalf("post-failover notification carries %d restaurants, want 1 (only the new one)", got)
	}

	// Exactly-once: no duplicate of the pre-failover notification arrives.
	select {
	case n, ok := <-rc.Notifications():
		if ok {
			t.Fatalf("duplicate notification: %+v", n)
		}
	case <-time.After(200 * time.Millisecond):
	}

	// A poll at or before the pre-failover time is still refused.
	err = rc.Poll(sub.Name, "30Dec96")
	if err == nil || !strings.Contains(err.Error(), "not after previous poll") {
		t.Fatalf("stale poll after failover: %v", err)
	}

	// The promoted server reports itself primary with zero lag.
	st, err := rc.Status()
	if err != nil || st == nil {
		t.Fatalf("status: %+v, %v", st, err)
	}
	if st.Role != "primary" || st.LagSeq != 0 || st.Applied != st.Commit {
		t.Fatalf("promoted status: %+v", st)
	}
}

// TestReplicatedFenceMidQuorumWaitNoRollback: a primary deposed while a
// poll waits for its ack quorum has already appended the poll record
// durably and folded it into subscription state. The poll must error
// without a notification, but the id state (stable-id remap, nextID
// high-water mark) must NOT be rolled back — it has to keep matching the
// oplog, or a later re-promotion would reuse object ids the log already
// carries and silently diverge from the followers.
func TestReplicatedFenceMidQuorumWaitNoRollback(t *testing.T) {
	dir := t.TempDir()
	src, _ := paperSource(t)
	var delivered []Notification
	svc, node := openReplService(t, dir, repl.Config{
		// Quorum is unreachable (no followers) and there is no timeout:
		// the poll blocks in the quorum wait until the node is deposed.
		ID: "a", Ack: repl.AckQuorum, Replicas: 2,
	}, func(n Notification) { delivered = append(delivered, n) })
	defer node.Close()
	if err := node.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Subscribe(replTestSub(src)); err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := svc.Poll("Restaurants", timestamp.MustParse("30Dec96"))
		errCh <- err
	}()
	qssWaitFor(t, "record appended", func() bool { return node.Status().Applied == 1 })
	node.Demote()
	if err := <-errCh; !errors.Is(err, repl.ErrFenced) {
		t.Fatalf("deposed mid-wait poll: %v", err)
	}
	if len(delivered) != 0 {
		t.Fatalf("deposed poll delivered %d notifications", len(delivered))
	}

	// The record is durable; in-memory id state must equal what a fresh
	// replay of the oplog produces (i.e. not the pre-poll values).
	readIDs := func(s *Service) (oem.NodeID, int, int) {
		s.mu.Lock()
		st := s.subs["Restaurants"]
		s.mu.Unlock()
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.nextID, len(st.remap), len(st.pollTimes)
	}
	liveNext, liveRemap, livePolls := readIDs(svc)
	if err := node.Close(); err != nil {
		t.Fatal(err)
	}
	svc2, node2 := openReplService(t, dir, repl.Config{ID: "a"}, nil)
	defer node2.Close()
	replayNext, replayRemap, replayPolls := readIDs(svc2)
	if liveNext != replayNext || liveRemap != replayRemap || livePolls != replayPolls {
		t.Fatalf("in-memory id state diverged from oplog replay: live (next=%d remap=%d polls=%d), replay (next=%d remap=%d polls=%d)",
			liveNext, liveRemap, livePolls, replayNext, replayRemap, replayPolls)
	}
	if replayNext <= 1 {
		t.Fatalf("replayed nextID = %d: poll record missing from oplog", replayNext)
	}
}

// TestReplicatedAckTimeoutSuppressesNotification: a quorum write with no
// follower is appended locally but unacknowledged — the poll errors and
// no notification fires, yet the history advanced (matching the repl
// contract: unacknowledged writes may still replicate later).
func TestReplicatedAckTimeoutSuppressesNotification(t *testing.T) {
	dir := t.TempDir()
	src, _ := paperSource(t)
	var delivered []Notification
	svc, node := openReplService(t, dir, repl.Config{
		ID: "a", Ack: repl.AckQuorum, Replicas: 2,
		AckTimeout: 50 * time.Millisecond,
	}, func(n Notification) { delivered = append(delivered, n) })
	defer node.Close()
	if err := node.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Subscribe(replTestSub(src)); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Poll("Restaurants", timestamp.MustParse("30Dec96"))
	if !errors.Is(err, repl.ErrAckTimeout) {
		t.Fatalf("quorum poll with no followers: %v", err)
	}
	if len(delivered) != 0 {
		t.Fatalf("unacknowledged poll delivered %d notifications", len(delivered))
	}
	if _, times, herr := svc.History("Restaurants"); herr != nil || len(times) != 1 {
		t.Fatalf("unacknowledged poll history: times=%d err=%v", len(times), herr)
	}
	if st := node.Status(); st.Applied != 1 || st.Commit != 0 {
		t.Fatalf("status after unacknowledged poll: %+v", st)
	}
}
