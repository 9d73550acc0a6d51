package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Tail-following reads. Replication streams records out of a live log while
// Append keeps writing to it, so Replay's hold-the-lock-for-the-whole-scan
// contract is the wrong tool: it would stall every append for the duration
// of a follower catch-up. Records instead snapshots LastSeq under the lock
// and then scans the segment files lock-free, bounded by that snapshot.
//
// Why the lock-free scan is safe: Append writes the full frame to the
// segment file *before* advancing l.seq, and both happen under l.mu. A
// reader that observes bound = l.seq under the same mutex therefore
// observes (same-process file I/O goes through the page cache, so write(2)
// before read(2) suffices) every byte of every frame with seq <= bound.
// Frames beyond the bound may be mid-write — torn — so the scan stops
// *before* decoding the first frame past the bound and never reports a
// decode error for bytes it was not entitled to read.
//
// Concurrent Checkpoint can delete a segment between the directory listing
// and the file read; Records retries the listing and reports ErrCompacted
// once the requested sequence falls under the new checkpoint.

// Rec is one record returned by Records.
type Rec struct {
	Seq     uint64
	Payload []byte
}

// ErrCompacted reports that the requested records have been removed by
// checkpoint compaction; the caller must restart from the checkpoint
// payload (LastCheckpoint) instead of the record stream.
var ErrCompacted = errors.New("wal: requested records compacted away")

// Records returns consecutive records with sequence >= from, up to roughly
// maxBytes of payload (at least one record when any is available), plus the
// last sequence present in the log at call time. It never blocks Append for
// longer than the bound snapshot and is safe to call concurrently with
// Append and Checkpoint. A from of 0 is treated as 1.
//
// When from is covered by a checkpoint the records are gone from disk and
// Records returns ErrCompacted.
func (l *Log) Records(from uint64, maxBytes int) (recs []Rec, last uint64, err error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, 0, ErrClosed
	}
	bound := l.seq
	base := l.ckptSeq
	l.mu.Unlock()

	if from == 0 {
		from = 1
	}
	if from <= base {
		return nil, bound, ErrCompacted
	}
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	for attempt := 0; ; attempt++ {
		// Lock-free: see the comment at the top of this file.
		recs = nil
		total := 0
		err := l.scan(from, bound, func(seq uint64, payload []byte) error {
			recs = append(recs, Rec{Seq: seq, Payload: payload})
			if total += len(payload); total >= maxBytes {
				return errFull
			}
			return nil
		})
		if err == nil || err == errFull {
			return recs, bound, nil
		}
		if errors.Is(err, os.ErrNotExist) || errors.Is(err, ErrCompacted) {
			// A concurrent checkpoint compacted under us: re-check where
			// the log now begins.
			if from <= l.CheckpointSeq() {
				return nil, bound, ErrCompacted
			}
			if attempt < 2 {
				continue
			}
		}
		return nil, bound, err
	}
}

// errFull ends a Records scan whose byte budget is spent.
var errFull = errors.New("wal: records: budget spent")

// scan is the log's one record reader: it calls fn, in sequence order, for
// every record in [from, bound] and returns fn's first error as it is. The
// records must be contiguous and reach bound; a gap, a bad frame or a
// missing record is an error, and ErrCompacted reports that every segment
// starts after from. Replay calls it under l.mu; Records without, bounded
// by its LastSeq snapshot.
func (l *Log) scan(from, bound uint64, fn func(seq uint64, payload []byte) error) error {
	if from > bound {
		return nil
	}
	paths, firsts, err := l.listSegments()
	if err != nil {
		return err
	}
	// The segment holding from is the last one that starts at or before it.
	start := sort.Search(len(firsts), func(i int) bool { return firsts[i] > from }) - 1
	if start < 0 {
		return ErrCompacted
	}
	expect := firsts[start]
	for i := start; i < len(paths) && expect <= bound; i++ {
		if firsts[i] != expect {
			return fmt.Errorf("wal: segment gap at seq %d", expect)
		}
		data, err := os.ReadFile(paths[i])
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		// Stop before the first frame past bound: it may be mid-write.
		for off := 0; off < len(data) && expect <= bound; expect++ {
			seq, payload, n, err := decodeFrame(data[off:])
			if err != nil {
				return fmt.Errorf("wal: %s at offset %d: %w", filepath.Base(paths[i]), off, err)
			}
			if seq != expect {
				return fmt.Errorf("wal: out-of-sequence record %d (want %d)", seq, expect)
			}
			off += n
			if seq >= from {
				if err := fn(seq, payload); err != nil {
					return err
				}
			}
		}
	}
	if expect <= bound {
		return fmt.Errorf("wal: log ends at %d before bound %d", expect-1, bound)
	}
	return nil
}

// Reset discards every record and installs checkpoint as the snapshot
// covering all sequences <= upTo, leaving the log positioned to append
// record upTo+1 next. Unlike Checkpoint, upTo may exceed the current last
// sequence: this is the bootstrap path for a replica that receives a state
// snapshot from its primary and must restart its log at the primary's
// position.
//
// Crash safety: segments are removed before the new checkpoint is
// installed, so a crash in between recovers to the old checkpoint with no
// records — a consistent (if stale) prefix that a replica will simply
// re-request. A removal or install that fails leaves the same unknown
// state without a crash, so the log closes: later calls fail with
// ErrClosed instead of appending records a reopen would drop, and
// reopening recovers whichever state is on disk.
func (l *Log) Reset(checkpoint []byte, upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.active != nil {
		// Contents are being discarded; close errors only matter for fd
		// hygiene.
		l.active.Close()
		l.active, l.activeSize = nil, 0
	}
	paths, _, err := l.listSegments()
	if err == nil {
		for i, p := range paths {
			paths[i] = filepath.Base(p)
		}
		err = RemoveEntries(l.dir, paths...)
	}
	if err == nil {
		err = l.installCheckpointLocked(checkpoint, upTo)
	}
	if err != nil {
		l.closed = true
		return err
	}
	l.seq = upTo
	return nil
}
