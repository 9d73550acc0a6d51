package qss

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/oem"
	"repro/internal/repl"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

// subSnapshot is the state a poll folds in, read under st.mu: poll count,
// id high-water mark, remap size, annotation count, and the full marshaled
// state (DOEM, remap, poll times) in hex for byte comparison.
type subSnapshot struct {
	polls, remap, annots int
	nextID               oem.NodeID
	state                string
}

func snapshotSub(t *testing.T, svc *Service, name string) subSnapshot {
	t.Helper()
	svc.mu.Lock()
	st := svc.subs[name]
	svc.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	data := st.marshalState()
	return subSnapshot{
		polls: len(st.pollTimes), remap: len(st.remap), annots: st.d.NumAnnotations(),
		nextID: st.nextID, state: hex.EncodeToString(data),
	}
}

// TestWALRefusedAppendLeavesStateAtLog: a poll whose record the log
// refuses must not advance the subscription (poll times, id high-water
// mark, remap, DOEM), since a restart could not replay what memory would
// then hold. The failed append closes the node, so later polls fail rather
// than append past a record that may or may not be on disk, even once the
// cause is gone; a restart on the same directory replays exactly what is
// durable.
func TestWALRefusedAppendLeavesStateAtLog(t *testing.T) {
	src, ids := paperSource(t)
	dir := t.TempDir()
	open := func() *Service {
		t.Helper()
		svc := NewService(nil)
		// Every append after the first opens a new segment named by its
		// first sequence number; a file already holding that name fails
		// the append.
		if err := svc.EnableWAL(dir, &wal.Options{Sync: wal.SyncNever, SegmentSize: 1}); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	svc := open()
	sub := Subscription{
		Name: "R", SourceName: "guide", Source: src,
		Polling: `select guide.restaurant`,
		Filter:  `select R.restaurant<cre at T> where T > t[-1]`,
	}
	if err := svc.Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Poll("R", timestamp.MustParse("30Dec96")); err != nil {
		t.Fatal(err)
	}
	// The refused poll would create a restaurant: new ids, remap entries
	// and annotations.
	if err := src.Mutate(func(db *oem.Database) error {
		r := db.CreateNode(value.Complex())
		nm := db.CreateNode(value.Str("Hakata"))
		if err := db.AddArc(ids.Guide, "restaurant", r); err != nil {
			return err
		}
		return db.AddArc(r, "name", nm)
	}); err != nil {
		t.Fatal(err)
	}
	before := snapshotSub(t, svc, "R")

	blocker := filepath.Join(dir, "oplog", fmt.Sprintf("%016x.seg", svc.node.Status().Applied+1))
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Poll("R", timestamp.MustParse("31Dec96")); err == nil {
		t.Fatal("poll over a failing append succeeded")
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	after := snapshotSub(t, svc, "R")
	if after.polls != before.polls || after.nextID != before.nextID || after.remap != before.remap || after.annots != before.annots {
		t.Fatalf("refused append moved state: polls %d->%d, nextID %d->%d, remap %d->%d, annotations %d->%d",
			before.polls, after.polls, before.nextID, after.nextID, before.remap, after.remap, before.annots, after.annots)
	}
	if after.state != before.state {
		t.Fatal("refused append changed the exported state")
	}
	if _, err := svc.Poll("R", timestamp.MustParse("1Jan97")); !errors.Is(err, repl.ErrClosed) {
		t.Fatalf("poll after a refused append: err = %v, want repl.ErrClosed", err)
	}
	svc.Close()

	// A restart replays exactly the durable prefix, and the change the
	// refused poll saw surfaces at the next poll.
	svc = open()
	defer svc.Close()
	if err := svc.Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	if got := snapshotSub(t, svc, "R"); got.state != before.state {
		t.Fatalf("replayed state differs from the durable prefix:\ngot  %s\nwant %s", got.state, before.state)
	}
	n, err := svc.Poll("R", timestamp.MustParse("2Jan97"))
	if err != nil {
		t.Fatal(err)
	}
	if n == nil || n.Result.Len() != 1 {
		t.Fatalf("poll after resubscribe = %v, want the one new restaurant", n)
	}
}

// persistenceMode is one way of backing a Service; open builds the
// service (reopening whatever its directory holds) and close shuts it.
type persistenceMode struct {
	name  string
	open  func(t *testing.T) *Service
	close func(t *testing.T, svc *Service)
	// reopenEvery, when non-zero, closes and reopens the service after
	// every reopenEvery rounds.
	reopenEvery int
	// sync, when set, marks a follower that neither subscribes nor polls:
	// it waits until the follower has applied all its primary has.
	sync func(t *testing.T)
	svc  *Service
	node *repl.Node
}

func walMode(name, dir string, reopenEvery int) *persistenceMode {
	return &persistenceMode{
		name: name,
		open: func(t *testing.T) *Service {
			svc := NewService(nil)
			if err := svc.EnableWAL(dir, &wal.Options{SegmentSize: 512, Sync: wal.SyncNever}); err != nil {
				t.Fatal(err)
			}
			return svc
		},
		close: func(t *testing.T, svc *Service) {
			if err := svc.Close(); err != nil {
				t.Fatal(err)
			}
		},
		reopenEvery: reopenEvery,
	}
}

// replMode is one promoted node with no ack quorum, serving follower
// streams on addr (the same address across reopens).
func replMode(t *testing.T, dir string) (*persistenceMode, string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	m := &persistenceMode{name: "repl"}
	m.open = func(t *testing.T) *Service {
		if ln == nil {
			if ln, err = net.Listen("tcp", addr); err != nil {
				t.Fatal(err)
			}
		}
		var svc *Service
		svc, m.node = openReplService(t, dir, repl.Config{ID: "a", Ack: repl.AckNone}, nil)
		if err := m.node.Promote(); err != nil {
			t.Fatal(err)
		}
		go m.node.Serve(ln)
		return svc
	}
	m.close = func(t *testing.T, svc *Service) {
		ln.Close()
		ln = nil
		if err := m.node.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return m, addr
}

// followerMode follows primary's node over loopback at addr.
func followerMode(dir, addr string, primary *persistenceMode) *persistenceMode {
	m := &persistenceMode{name: "follower"}
	m.open = func(t *testing.T) *Service {
		var svc *Service
		svc, m.node = openReplService(t, dir, repl.Config{
			ID: "f", RedialInitial: 5 * time.Millisecond, RedialMax: 50 * time.Millisecond,
		}, nil)
		if err := m.node.Follow(func() (net.Conn, error) { return net.Dial("tcp", addr) }); err != nil {
			t.Fatal(err)
		}
		return svc
	}
	m.close = func(t *testing.T, svc *Service) {
		if err := m.node.Close(); err != nil {
			t.Fatal(err)
		}
	}
	m.sync = func(t *testing.T) {
		want := primary.node.Status().Applied
		qssWaitFor(t, "follower catch-up", func() bool { return m.node.Status().Applied == want })
	}
	return m
}

// TestPersistenceModesConverge drives one randomized source stream through
// every persistence target — none, a WAL (a standalone node), a replicated
// node (one promoted node, no quorum) and its follower over loopback, and
// a WAL service reopened every few rounds — and requires the state of
// every subscription to be byte-identical across them after every poll
// and after one truncation: the poll, the truncation, a restart's replay,
// a follower's stream and a snapshot restore all fold a record the same
// way. After Close and a reopen the persisted services must hold the same
// bytes again (replaying a history prefix yields the state at that time).
func TestPersistenceModesConverge(t *testing.T) {
	src, ids := paperSource(t)
	unstable := wrapper.Unstable{Inner: src}
	primary, addr := replMode(t, t.TempDir())
	modes := []*persistenceMode{
		{name: "plain", open: func(*testing.T) *Service { return NewService(nil) }, close: func(*testing.T, *Service) {}},
		walMode("wal", t.TempDir(), 0),
		primary,
		followerMode(t.TempDir(), addr, primary),
		walMode("wal-reopened", t.TempDir(), 4),
	}
	type subSpec struct {
		name string
		src  wrapper.Source
		f    string
	}
	var subs []subSpec
	for i, f := range parityFilters {
		name := fmt.Sprintf("P%d", i)
		subs = append(subs, subSpec{name, src, fmt.Sprintf(f, name)})
	}
	// A source without object identity takes the id-allocating diff.
	subs = append(subs, subSpec{"U", unstable, `select U.restaurant<cre at T> where T > t[-1]`})
	subscribeAll := func(t *testing.T, m *persistenceMode) {
		t.Helper()
		if m.sync != nil {
			return
		}
		for _, s := range subs {
			if err := m.svc.Subscribe(Subscription{
				Name: s.name, SourceName: "guide", Source: s.src,
				Polling: `select guide.restaurant`, Filter: s.f,
			}); err != nil {
				t.Fatalf("%s: subscribe %s: %v", m.name, s.name, err)
			}
		}
	}
	reopen := func(t *testing.T, m *persistenceMode) {
		t.Helper()
		m.close(t, m.svc)
		m.svc = m.open(t)
		subscribeAll(t, m)
	}
	for _, m := range modes {
		m.svc = m.open(t)
		subscribeAll(t, m)
	}
	requireSame := func(when string, names ...string) {
		t.Helper()
		for _, m := range modes {
			if m.sync != nil {
				m.sync(t)
			}
		}
		for _, name := range names {
			want := snapshotSub(t, modes[0].svc, name).state
			for _, m := range modes[1:] {
				if got := snapshotSub(t, m.svc, name).state; got != want {
					t.Fatalf("%s: %s state of %s differs from %s:\ngot  %s\nwant %s",
						when, m.name, name, modes[0].name, got, want)
				}
			}
		}
	}
	var names []string
	for _, s := range subs {
		names = append(names, s.name)
	}

	rng := rand.New(rand.NewSource(5))
	prices := []oem.NodeID{ids.Price, ids.JantaPrice}
	rests := []oem.NodeID{ids.Bangkok, ids.Janta}
	base := timestamp.MustParse("1Jan97")
	const truncateRound = 13
	for round := 0; round < 24; round++ {
		mutateRandom(t, rng, src, ids, &prices, &rests)
		at := base.Add(time.Duration(round) * time.Hour)
		for _, s := range subs {
			want := ""
			for i, m := range modes {
				if m.sync != nil {
					continue
				}
				n, err := m.svc.Poll(s.name, at)
				if err != nil {
					t.Fatalf("round %d %s %s: %v", round, m.name, s.name, err)
				}
				if i == 0 {
					want = renderNotif(n)
				} else if got := renderNotif(n); got != want {
					t.Fatalf("round %d %s %s: notification differs from %s\ngot  %s\nwant %s",
						round, m.name, s.name, modes[0].name, got, want)
				}
			}
			requireSame(fmt.Sprintf("round %d", round), s.name)
		}
		if round == truncateRound {
			cut := base.Add(time.Duration(round/2) * time.Hour)
			for _, m := range modes {
				for _, s := range subs {
					if m.sync == nil {
						if err := m.svc.Truncate(s.name, cut); err != nil {
							t.Fatalf("%s: truncate %s: %v", m.name, s.name, err)
						}
					}
				}
			}
			requireSame("truncation", names...)
		}
		for _, m := range modes {
			if m.reopenEvery > 0 && round%m.reopenEvery == m.reopenEvery-1 {
				reopen(t, m)
			}
		}
		requireSame(fmt.Sprintf("round %d after reopen", round), names...)
	}

	for _, m := range modes[1:] {
		reopen(t, m)
	}
	requireSame("final reopen", names...)
	for i := len(modes) - 1; i >= 0; i-- {
		modes[i].close(t, modes[i].svc)
	}
}
