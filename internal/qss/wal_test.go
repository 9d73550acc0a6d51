package qss

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/change"
	"repro/internal/oem"
	"repro/internal/repl"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

// pollDays runs Poll over consecutive days starting at day `from` (1Jan97
// is day 1) and returns the notifications (nil entries for silent polls).
func pollDays(t *testing.T, svc *Service, name string, from, to int) []*Notification {
	t.Helper()
	var out []*Notification
	for day := from; day <= to; day++ {
		at := timestamp.MustParse("1Jan97").Add(time.Duration(day-1) * 24 * time.Hour)
		n, err := svc.Poll(name, at)
		if err != nil {
			t.Fatalf("poll day %d: %v", day, err)
		}
		out = append(out, n)
	}
	return out
}

// sameNotifications compares two notification sequences structurally.
func sameNotifications(a, b []*Notification) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) {
			return false
		}
		if a[i] == nil {
			continue
		}
		if !a[i].At.Equal(b[i].At) || a[i].Subscription != b[i].Subscription {
			return false
		}
		if !a[i].Answer.Equal(b[i].Answer) {
			return false
		}
	}
	return true
}

// TestWALRestartMatchesUninterrupted is the restart satellite: a service
// with WAL persistence is killed after a few polls and restarted; the
// subsequent polls must produce exactly the notifications an uninterrupted
// service produces — recovered from the log, without re-polling history.
func TestWALRestartMatchesUninterrupted(t *testing.T) {
	// Two identical mutable sources so the interrupted and uninterrupted
	// services observe the same evolution.
	srcA, idsA := paperSource(t)
	srcB, idsB := paperSource(t)
	sub := func(src *wrapper.Mutable) Subscription {
		return Subscription{
			Name: "R", SourceName: "guide", Source: src,
			Polling: `select guide.restaurant`,
			Filter:  `select R.restaurant<cre at T> where T > t[-1]`,
		}
	}

	dir := t.TempDir()
	svc1 := NewService(nil)
	if err := svc1.EnableWAL(dir, &wal.Options{Sync: wal.SyncNever}); err != nil {
		t.Fatal(err)
	}
	if err := svc1.Subscribe(sub(srcA)); err != nil {
		t.Fatal(err)
	}
	ref := NewService(nil)
	if err := ref.Subscribe(sub(srcB)); err != nil {
		t.Fatal(err)
	}

	pollDays(t, svc1, "R", 1, 3)
	pollDays(t, ref, "R", 1, 3)

	// Both sources change identically between the poll rounds.
	addRestaurant := func(src *wrapper.Mutable, guide oem.NodeID) {
		t.Helper()
		if err := src.Mutate(func(db *oem.Database) error {
			r := db.CreateNode(value.Complex())
			if err := db.AddArc(guide, "restaurant", r); err != nil {
				return err
			}
			nm := db.CreateNode(value.Str("Hakata"))
			return db.AddArc(r, "name", nm)
		}); err != nil {
			t.Fatal(err)
		}
	}
	addRestaurant(srcA, idsA.Guide)
	addRestaurant(srcB, idsB.Guide)

	// "Kill" the WAL-backed service without any export.
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := NewService(nil)
	if err := svc2.EnableWAL(dir, &wal.Options{Sync: wal.SyncNever}); err != nil {
		t.Fatal(err)
	}
	if err := svc2.Subscribe(sub(srcA)); err != nil {
		t.Fatal(err)
	}

	// Recovered history: poll times survive the restart.
	_, times, err := svc2.History("R")
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("recovered %d poll times, want 3", len(times))
	}

	got := pollDays(t, svc2, "R", 4, 6)
	want := pollDays(t, ref, "R", 4, 6)
	if !sameNotifications(got, want) {
		t.Errorf("post-restart notifications diverge from uninterrupted run:\ngot  %v\nwant %v", got, want)
	}

	// The restarted service reports the new restaurant exactly once.
	if got[0] == nil || got[0].Result.Len() != 1 {
		t.Errorf("day-4 poll after restart = %v, want the one new restaurant", got[0])
	}
}

// TestWALTruncateCompactsLog: truncating a logged subscription is a
// logged record, after which the oplog's checkpoint covers everything and
// its segments go.
func TestWALTruncateCompactsLog(t *testing.T) {
	src, ids := paperSource(t)
	dir := t.TempDir()
	svc := NewService(nil)
	if err := svc.EnableWAL(dir, &wal.Options{SegmentSize: 256, Sync: wal.SyncNever}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Subscribe(Subscription{
		Name: "R", SourceName: "guide", Source: src,
		Polling: `select guide.restaurant`,
		Filter:  `select R.restaurant<cre at T> where T > t[-1]`,
	}); err != nil {
		t.Fatal(err)
	}
	for day := 1; day <= 6; day++ {
		at := timestamp.MustParse("1Jan97").Add(time.Duration(day-1) * 24 * time.Hour)
		if day%2 == 0 {
			if err := src.Mutate(func(db *oem.Database) error {
				r := db.CreateNode(value.Complex())
				return db.AddArc(ids.Guide, "restaurant", r)
			}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svc.Poll("R", at); err != nil {
			t.Fatal(err)
		}
	}
	logDir := filepath.Join(dir, "oplog")
	before := countSegs(t, logDir)
	if before == 0 {
		t.Fatal("no segments before truncation")
	}
	if err := svc.Truncate("R", timestamp.MustParse("6Jan97")); err != nil {
		t.Fatal(err)
	}
	if after := countSegs(t, logDir); after != 0 {
		t.Errorf("%d segments survive truncation, want 0", after)
	}
	// A restart serves the truncated history from the checkpoint.
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc2 := NewService(nil)
	if err := svc2.EnableWAL(dir, &wal.Options{SegmentSize: 256, Sync: wal.SyncNever}); err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if err := svc2.Subscribe(Subscription{
		Name: "R", SourceName: "guide", Source: src,
		Polling: `select guide.restaurant`,
		Filter:  `select R.restaurant<cre at T> where T > t[-1]`,
	}); err != nil {
		t.Fatal(err)
	}
	_, times, err := svc2.History("R")
	if err != nil {
		t.Fatal(err)
	}
	if len(times) != 0 {
		t.Errorf("poll times at or before the truncation point survive: %v", times)
	}
}

func countSegs(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".seg") {
			n++
		}
	}
	return n
}

// TestEnableWALGuards: EnableWAL needs a directory, precedes Subscribe,
// and is the service's one node; a directory holding a per-subscription
// log of the older layout is refused by name rather than silently
// ignored. Subscription names are oplog keys, not paths.
func TestEnableWALGuards(t *testing.T) {
	svc := NewService(nil)
	if err := svc.EnableWAL("", nil); err == nil {
		t.Error("EnableWAL accepted an empty directory")
	}
	src, _ := paperSource(t)
	sub := Subscription{
		Name: "R", SourceName: "guide", Source: src,
		Polling: `select guide.restaurant`, Filter: `select R.restaurant`,
	}
	if err := svc.Subscribe(sub); err != nil {
		t.Fatal(err)
	}
	if err := svc.EnableWAL(t.TempDir(), nil); err == nil {
		t.Error("EnableWAL after Subscribe succeeded")
	}

	svc2 := NewService(nil)
	if err := svc2.EnableWAL(t.TempDir(), nil); err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if err := svc2.EnableWAL(t.TempDir(), nil); err == nil {
		t.Error("second EnableWAL succeeded")
	}
	node, err := repl.Open(t.TempDir(), NewReplState(svc2), repl.Config{ID: "b"})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if err := svc2.EnableReplication(node); err == nil {
		t.Error("EnableReplication after EnableWAL succeeded")
	}
	odd := sub
	odd.Name = "../escape"
	if err := svc2.Subscribe(odd); err != nil {
		t.Errorf("subscription name with a path separator: %v", err)
	}

	old := t.TempDir()
	if err := os.Mkdir(filepath.Join(old, "R.subwal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := NewService(nil).EnableWAL(old, nil); err == nil || !strings.Contains(err.Error(), "R.subwal") {
		t.Errorf("EnableWAL over an older per-subscription log: %v", err)
	}
}

// TestEnableWALRefusesJSONCheckpoint: an oplog checkpoint whose
// subscription states are JSON, the layout of earlier versions, is no
// longer read. EnableWAL fails with an error naming the oplog, and the
// checkpoint stays as it was.
func TestEnableWALRefusesJSONCheckpoint(t *testing.T) {
	dir := t.TempDir()
	oplog := filepath.Join(dir, "oplog")
	l, err := wal.Open(oplog, nil)
	if err != nil {
		t.Fatal(err)
	}
	state := []byte(`{"name":"R","doem":{"current":{"root":1,"nodes":[{"id":1,"kind":"complex"}],"arcs":[]}},"next_id":1}`)
	snap := binary.AppendUvarint(change.AppendString(binary.AppendUvarint(nil, 1), "R"), uint64(len(state)))
	if err := l.Checkpoint(append(snap, state...), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(oplog, "CHECKPOINT")
	before, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	svc := NewService(nil)
	err = svc.EnableWAL(dir, nil)
	if err == nil {
		svc.Close()
		t.Fatal("EnableWAL restored a JSON checkpoint")
	}
	if !strings.Contains(err.Error(), oplog) || !strings.Contains(err.Error(), "older version") {
		t.Errorf("error %q does not name %s as an older layout", err, oplog)
	}
	if after, err := os.ReadFile(ckpt); err != nil || !bytes.Equal(after, before) {
		t.Errorf("the refused checkpoint changed (%v)", err)
	}
}

// TestPollRecordRoundTrip exercises the record codec directly, on a poll
// record and a truncation record.
func TestPollRecordRoundTrip(t *testing.T) {
	at := timestamp.MustParse("5Mar97")
	poll := record{
		t: at,
		ops: change.Set{
			change.CreNode{Node: 12, Value: value.Str("Hakata")},
			change.AddArc{Parent: 1, Label: "restaurant", Child: 12},
		},
		added:  []remapPair{{Src: 7, ID: 12}, {Src: 9, ID: 13}},
		nextID: 42,
	}
	for _, r := range []record{poll, {truncate: true, t: at}} {
		data := r.appendTo(nil)
		got, err := decodeRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		if !got.t.Equal(r.t) {
			t.Errorf("time %v, want %v", got.t, r.t)
		}
		got.t = r.t
		if !reflect.DeepEqual(got, r) {
			t.Errorf("record round trip differs:\ngot  %+v\nwant %+v", got, r)
		}
		// Truncations error, never panic.
		for i := 0; i < len(data); i++ {
			if _, err := decodeRecord(data[:i]); err == nil {
				t.Errorf("truncated record (%d bytes) accepted", i)
			}
		}
		if _, err := decodeRecord(append(data, 0)); err == nil {
			t.Error("trailing byte accepted")
		}
	}
	if _, err := decodeRecord([]byte{'X'}); err == nil {
		t.Error("unknown record kind accepted")
	}
}
