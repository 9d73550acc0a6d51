package qss

import (
	"encoding/binary"
	"testing"

	"repro/internal/change"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wal"
)

// TestStateSurvivesRestart: poll, close the service, restart it on the
// same WAL directory, re-subscribe, and confirm the next poll sees exactly
// the delta (not a fresh start).
func TestStateSurvivesRestart(t *testing.T) {
	src, ids := paperSource(t)
	sub := Subscription{
		Name: "R", SourceName: "guide", Source: src,
		Polling: `select guide.restaurant`,
		Filter:  `select R.restaurant<cre at T> where T > t[-1]`,
	}
	dir := t.TempDir()
	open := func() *Service {
		t.Helper()
		svc := NewService(nil)
		if err := svc.EnableWAL(dir, &wal.Options{Sync: wal.SyncNever}); err != nil {
			t.Fatal(err)
		}
		if err := svc.Subscribe(sub); err != nil {
			t.Fatal(err)
		}
		return svc
	}

	svc1 := open()
	n1, err := svc1.Poll("R", timestamp.MustParse("1Jan97"))
	if err != nil {
		t.Fatal(err)
	}
	if n1 == nil || n1.Result.Len() != 2 {
		t.Fatalf("first poll = %v", n1)
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}
	// The closed service keeps no history in memory; the oplog has it.
	if names := svc1.List(); len(names) != 0 {
		t.Fatalf("closed service still lists %v", names)
	}

	// "Restart": a fresh service on the same directory.
	svc2 := open()
	defer svc2.Close()

	// Without changes, the next poll is silent (state carried over; a
	// fresh subscription would have re-reported both restaurants).
	n, err := svc2.Poll("R", timestamp.MustParse("2Jan97"))
	if err != nil {
		t.Fatal(err)
	}
	if n != nil {
		t.Fatalf("restart re-reported existing objects:\n%s", n.Result)
	}

	// A real change is detected incrementally.
	if err := src.Mutate(func(db *oem.Database) error {
		r := db.CreateNode(value.Complex())
		return db.AddArc(ids.Guide, "restaurant", r)
	}); err != nil {
		t.Fatal(err)
	}
	n, err = svc2.Poll("R", timestamp.MustParse("3Jan97"))
	if err != nil {
		t.Fatal(err)
	}
	if n == nil || n.Result.Len() != 1 {
		t.Fatalf("post-restart delta = %v", n)
	}
	// History continuity: three polls total across both lifetimes.
	_, times, err := svc2.History("R")
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Errorf("poll times = %v", times)
	}
}

// TestRestoreGuards: the node's snapshots and records reach a service only
// through ReplState, which refuses malformed input without touching the
// service's subscriptions.
func TestRestoreGuards(t *testing.T) {
	src, _ := paperSource(t)
	svc := NewService(nil)
	rs := NewReplState(svc)
	if err := svc.Subscribe(Subscription{
		Name: "R", SourceName: "guide", Source: src,
		Polling: `select guide.restaurant`, Filter: `select R.restaurant`,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Poll("R", timestamp.MustParse("1Jan97")); err != nil {
		t.Fatal(err)
	}
	snap, err := rs.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	badState := binary.AppendUvarint(change.AppendString(binary.AppendUvarint(nil, 1), "R"), 8)
	badState = append(badState, "not json"...)
	for name, bad := range map[string][]byte{
		"empty":          nil,
		"truncated":      snap[:len(snap)-1],
		"trailing bytes": append(append([]byte(nil), snap...), 0),
		"bad state":      badState,
	} {
		if err := rs.Restore(bad); err == nil {
			t.Errorf("%s snapshot restored", name)
		}
	}
	if err := rs.Apply("ghost", []byte("not a record")); err == nil {
		t.Error("garbage record applied")
	}
	if got := svc.List(); len(got) != 1 || got[0] != "R" {
		t.Errorf("refused input changed the subscriptions: %v", got)
	}
	_, times, err := svc.History("R")
	if err != nil || len(times) != 1 {
		t.Errorf("refused input changed R: times=%v err=%v", times, err)
	}
}
