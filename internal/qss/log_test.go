package qss

import (
	"errors"
	"fmt"
	"math/rand"
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
// id high-water mark, remap size, annotation count, and the full exported
// state (DOEM, remap, poll times) for byte comparison.
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
	data, err := st.marshalState(name)
	if err != nil {
		t.Fatal(err)
	}
	return subSnapshot{
		polls: len(st.pollTimes), remap: len(st.remap), annots: st.d.NumAnnotations(),
		nextID: st.nextID, state: string(data),
	}
}

// TestWALRefusedAppendLeavesStateAtLog: a poll whose record the log
// refuses must not advance the subscription (poll times, id high-water
// mark, remap, DOEM), since a restart could not replay what memory would
// then hold. The log stays closed afterwards, so later polls fail rather
// than append past a record that may or may not be on disk; re-subscribing
// on the same directory replays exactly what is durable.
func TestWALRefusedAppendLeavesStateAtLog(t *testing.T) {
	src, ids := paperSource(t)
	dir := t.TempDir()
	svc := NewService(nil)
	if err := svc.EnableWAL(dir, &wal.Options{Sync: wal.SyncNever}); err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
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

	svc.mu.Lock()
	svc.subs["R"].log.Close()
	svc.mu.Unlock()
	if _, err := svc.Poll("R", timestamp.MustParse("31Dec96")); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("poll over a closed log: err = %v, want wal.ErrClosed", err)
	}
	after := snapshotSub(t, svc, "R")
	if after.polls != before.polls || after.nextID != before.nextID || after.remap != before.remap || after.annots != before.annots {
		t.Fatalf("refused append moved state: polls %d->%d, nextID %d->%d, remap %d->%d, annotations %d->%d",
			before.polls, after.polls, before.nextID, after.nextID, before.remap, after.remap, before.annots, after.annots)
	}
	if after.state != before.state {
		t.Fatal("refused append changed the exported state")
	}
	if _, err := svc.Poll("R", timestamp.MustParse("1Jan97")); err == nil {
		t.Fatal("poll after a refused append succeeded; the log must stay closed")
	}

	// Re-subscribing replays exactly the durable prefix, and the change the
	// refused poll saw surfaces at the next poll.
	if err := svc.Unsubscribe("R"); err != nil {
		t.Fatal(err)
	}
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
	svc         *Service
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

func replMode(dir string) *persistenceMode {
	var node *repl.Node
	return &persistenceMode{
		name: "repl",
		open: func(t *testing.T) *Service {
			var svc *Service
			svc, node = openReplService(t, dir, repl.Config{ID: "a", Ack: repl.AckNone}, nil)
			if err := node.Promote(); err != nil {
				t.Fatal(err)
			}
			return svc
		},
		close: func(t *testing.T, svc *Service) {
			if err := node.Close(); err != nil {
				t.Fatal(err)
			}
		},
	}
}

// TestPersistenceModesConverge drives one randomized source stream through
// every persistence target — none, a subscription WAL, a replicated oplog
// (one promoted node, no followers), and a WAL service reopened every few
// rounds — and requires the exported state of every subscription to be
// byte-identical across them after every poll: the poll, WAL replay and
// the replicated apply fold a poll record the same way. After Close and a
// reopen the persisted services must export the same bytes again
// (replaying a history prefix yields the state at that time).
func TestPersistenceModesConverge(t *testing.T) {
	src, ids := paperSource(t)
	unstable := wrapper.Unstable{Inner: src}
	modes := []*persistenceMode{
		{name: "plain", open: func(*testing.T) *Service { return NewService(nil) }, close: func(*testing.T, *Service) {}},
		walMode("wal", t.TempDir(), 0),
		replMode(t.TempDir()),
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
	subscribeAll := func(t *testing.T, svc *Service) {
		t.Helper()
		for _, s := range subs {
			if err := svc.Subscribe(Subscription{
				Name: s.name, SourceName: "guide", Source: s.src,
				Polling: `select guide.restaurant`, Filter: s.f,
			}); err != nil {
				t.Fatalf("subscribe %s: %v", s.name, err)
			}
		}
	}
	reopen := func(t *testing.T, m *persistenceMode) {
		t.Helper()
		m.close(t, m.svc)
		m.svc = m.open(t)
		subscribeAll(t, m.svc)
	}
	for _, m := range modes {
		m.svc = m.open(t)
		subscribeAll(t, m.svc)
	}
	requireSame := func(when string, names ...string) {
		t.Helper()
		for _, name := range names {
			var want []byte
			for i, m := range modes {
				got, err := m.svc.ExportState(name)
				if err != nil {
					t.Fatalf("%s: %s export %s: %v", when, m.name, name, err)
				}
				if i == 0 {
					want = got
				} else if string(got) != string(want) {
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
	for round := 0; round < 24; round++ {
		mutateRandom(t, rng, src, ids, &prices, &rests)
		at := base.Add(time.Duration(round) * time.Hour)
		for _, s := range subs {
			want := ""
			for i, m := range modes {
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
	for _, m := range modes {
		m.close(t, m.svc)
	}
}
