package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func tailPayload(seq uint64) []byte {
	return bytes.Repeat([]byte(fmt.Sprintf("payload-%06d|", seq)), 4)
}

func TestRecordsBasic(t *testing.T) {
	l, err := Open(t.TempDir(), &Options{SegmentSize: 256, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 100
	for i := uint64(1); i <= n; i++ {
		if _, err := l.Append(tailPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Walk the log in small batches from seq 0 (treated as 1).
	var got []Rec
	next := uint64(0)
	for {
		recs, last, err := l.Records(next, 64)
		if err != nil {
			t.Fatal(err)
		}
		if last != n {
			t.Fatalf("last = %d, want %d", last, n)
		}
		if len(recs) == 0 {
			break
		}
		got = append(got, recs...)
		next = recs[len(recs)-1].Seq + 1
	}
	if len(got) != n {
		t.Fatalf("read %d records, want %d", len(got), n)
	}
	for i, r := range got {
		want := uint64(i + 1)
		if r.Seq != want {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, want)
		}
		if !bytes.Equal(r.Payload, tailPayload(want)) {
			t.Fatalf("record %d payload mismatch", want)
		}
	}
	// Mid-log start.
	recs, _, err := l.Records(42, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n-41 || recs[0].Seq != 42 {
		t.Fatalf("Records(42) = %d records starting %d", len(recs), recs[0].Seq)
	}
	// Beyond the end.
	recs, last, err := l.Records(n+1, 1<<20)
	if err != nil || len(recs) != 0 || last != n {
		t.Fatalf("Records past end = %v,%d,%v", recs, last, err)
	}
}

func TestRecordsCompacted(t *testing.T) {
	l, err := Open(t.TempDir(), &Options{SegmentSize: 128, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := uint64(1); i <= 50; i++ {
		if _, err := l.Append(tailPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint([]byte("snap"), 30); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Records(30, 1<<20); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Records(30) err = %v, want ErrCompacted", err)
	}
	recs, _, err := l.Records(31, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 20 || recs[0].Seq != 31 || recs[19].Seq != 50 {
		t.Fatalf("Records(31) = %d records [%d..%d]", len(recs), recs[0].Seq, recs[len(recs)-1].Seq)
	}
}

// TestResetFailureClosesLog: a Reset whose checkpoint cannot be installed
// (a non-empty directory stands where its temp file goes) has already
// removed the log's segments, so it closes the log. A later Append fails
// with ErrClosed instead of writing a record past a gap, and a reopen once
// the obstacle is gone recovers the old checkpoint with no records.
func TestResetFailureClosesLog(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, &Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		if _, err := l.Append(tailPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	obstacle := filepath.Join(dir, checkpointName+".tmp")
	if err := os.MkdirAll(filepath.Join(obstacle, "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := l.Reset([]byte("bootstrap"), 10); err == nil {
		t.Fatal("Reset succeeded over a non-empty temp directory")
	}
	if err := os.RemoveAll(obstacle); err != nil {
		t.Fatal(err)
	}
	if seq, err := l.Append(tailPayload(4)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after a failed Reset = %d, %v, want ErrClosed", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, &Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 0 {
		t.Fatalf("LastSeq after reopen = %d, want 0 (the old checkpoint, no records)", got)
	}
	if _, _, ok, err := l2.LastCheckpoint(); err != nil || ok {
		t.Fatalf("LastCheckpoint after reopen: ok %v, err %v; want none", ok, err)
	}
}

func TestReset(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, &Options{SegmentSize: 128, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 20; i++ {
		if _, err := l.Append(tailPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset([]byte("bootstrap"), 42); err != nil {
		t.Fatal(err)
	}
	if got := l.LastSeq(); got != 42 {
		t.Fatalf("LastSeq after Reset = %d, want 42", got)
	}
	pay, upTo, ok, err := l.LastCheckpoint()
	if err != nil || !ok || upTo != 42 || string(pay) != "bootstrap" {
		t.Fatalf("LastCheckpoint = %q,%d,%v,%v", pay, upTo, ok, err)
	}
	if recs, _, err := l.Records(1, 1<<20); !errors.Is(err, ErrCompacted) {
		t.Fatalf("Records(1) after Reset = %v,%v, want ErrCompacted", recs, err)
	}
	seq, err := l.Append(tailPayload(43))
	if err != nil || seq != 43 {
		t.Fatalf("Append after Reset = %d,%v, want 43", seq, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Recovery must agree with the reset state.
	l2, err := Open(dir, &Options{SegmentSize: 128, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := l2.LastSeq(); got != 43 {
		t.Fatalf("LastSeq after reopen = %d, want 43", got)
	}
	recs, _, err := l2.Records(43, 1<<20)
	if err != nil || len(recs) != 1 || !bytes.Equal(recs[0].Payload, tailPayload(43)) {
		t.Fatalf("Records(43) after reopen = %v,%v", recs, err)
	}
}

// TestRecordsConcurrentAppend is the race-stress half of the Replay/Append
// audit: a writer appends while tail-followers read with Records and a
// recovery-style Replay runs at the end. Run under -race.
func TestRecordsConcurrentAppend(t *testing.T) {
	l, err := Open(t.TempDir(), &Options{SegmentSize: 512, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const total = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= total; i++ {
			if _, err := l.Append(tailPayload(i)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	// Two concurrent tail-followers.
	readers := 2
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func() {
			defer wg.Done()
			next := uint64(1)
			for next <= total {
				recs, _, err := l.Records(next, 2048)
				if err != nil {
					t.Errorf("records from %d: %v", next, err)
					return
				}
				for _, rec := range recs {
					if rec.Seq != next {
						t.Errorf("got seq %d, want %d", rec.Seq, next)
						return
					}
					if !bytes.Equal(rec.Payload, tailPayload(rec.Seq)) {
						t.Errorf("payload mismatch at %d", rec.Seq)
						return
					}
					next++
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// A full Replay still sees the exact sequence.
	want := uint64(1)
	err = l.Replay(func(seq uint64, payload []byte) error {
		if seq != want {
			return fmt.Errorf("replay seq %d, want %d", seq, want)
		}
		want++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want != total+1 {
		t.Fatalf("replay covered %d records, want %d", want-1, total)
	}
}

// TestRecordsConcurrentCheckpoint exercises the ErrCompacted retry path:
// checkpoints race the tail-follower, which must either read a record or
// learn it was compacted — never see garbage.
func TestRecordsConcurrentCheckpoint(t *testing.T) {
	l, err := Open(t.TempDir(), &Options{SegmentSize: 256, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const total = 1000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(1); i <= total; i++ {
			if _, err := l.Append(tailPayload(i)); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
			if i%100 == 0 {
				if err := l.Checkpoint([]byte("ck"), i-50); err != nil {
					t.Errorf("checkpoint at %d: %v", i-50, err)
					return
				}
			}
		}
	}()
	go func() {
		defer wg.Done()
		next := uint64(1)
		for next <= total {
			recs, _, err := l.Records(next, 1024)
			if errors.Is(err, ErrCompacted) {
				upTo := l.CheckpointSeq()
				if upTo < next {
					t.Errorf("compacted below %d but checkpoint=%d", next, upTo)
					return
				}
				next = upTo + 1
				continue
			}
			if err != nil {
				t.Errorf("records from %d: %v", next, err)
				return
			}
			for _, rec := range recs {
				if rec.Seq != next || !bytes.Equal(rec.Payload, tailPayload(rec.Seq)) {
					t.Errorf("bad record %d (want %d)", rec.Seq, next)
					return
				}
				next++
			}
		}
	}()
	wg.Wait()
}
