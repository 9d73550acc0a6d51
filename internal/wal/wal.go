// Package wal implements a durable, segmented write-ahead log — the
// on-disk form of the paper's central object, an OEM history (Section
// 2.2): an append-only sequence of records, each in this repository one
// timestamped change set or one replicated operation.
//
// Records are length-prefixed binary frames with a CRC-32C each (see
// record.go). The log is split into segment files that rotate at a
// configurable size. Recovery scans segments in order, truncates the first
// torn or corrupt frame and everything after it (a torn tail is discarded,
// never misapplied), and replays the surviving prefix. Checkpoints install
// a snapshot of the state the records built and drop the segments they
// cover — the paper's Section 6.1 space-for-accuracy trade realized as log
// compaction.
//
// A Log stores opaque payloads: what a record or a checkpoint holds is
// its user's choice. internal/segment writes history steps and a stored
// DOEM database; internal/repl writes oplog records and its state's
// snapshot.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// SyncPolicy selects when appends reach stable storage.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs after every append (durable, slowest).
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs at most once per syncInterval (100ms),
	// piggybacked on appends; a crash can lose the records since the last
	// sync, but recovery still yields a valid prefix.
	SyncInterval
	// SyncNever leaves syncing to the OS (fastest; crash loses the OS
	// write-back window).
	SyncNever
)

// Options configures a Log. The zero value is usable: 4 MiB segments with
// SyncAlways.
type Options struct {
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes. Default 4 MiB.
	SegmentSize int64
	// Sync is the fsync policy. Default SyncAlways.
	Sync SyncPolicy
}

// syncInterval is the longest time between fsyncs under SyncInterval.
const syncInterval = 100 * time.Millisecond

func (o *Options) withDefaults() Options {
	var opt Options
	if o != nil {
		opt = *o
	}
	if opt.SegmentSize <= 0 {
		opt.SegmentSize = 4 << 20
	}
	return opt
}

const segmentExt = ".seg"

// Log is a segmented append-only record log in one directory. Methods are
// safe for concurrent use.
type Log struct {
	dir string
	opt Options

	mu         sync.Mutex
	active     *os.File // the last segment; nil until the first append after Open/Checkpoint
	activeSize int64
	seq        uint64 // sequence of the last appended record (0 = none yet)
	ckptSeq    uint64 // records with seq <= ckptSeq are covered by the checkpoint
	lastSync   time.Time
	closed     bool
}

// ErrClosed reports use of a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Open opens (creating if necessary) the log in dir and runs recovery:
// it loads the latest checkpoint, scans the segment files in order, and
// truncates the log at the first torn, corrupt, or out-of-sequence record.
func Open(dir string, opt *Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	_, ckptSeq, _, err := readCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt.withDefaults(), ckptSeq: ckptSeq}
	if err := l.recoverSegments(); err != nil {
		return nil, err
	}
	return l, nil
}

// segmentName names the segment whose first record has sequence firstSeq.
func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("%016x%s", firstSeq, segmentExt)
}

// listSegments returns the segment files' paths in ascending
// first-sequence order, with their parsed first sequences: os.ReadDir
// sorts by name, and segment names are fixed-width hex.
func (l *Log) listSegments() ([]string, []uint64, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var paths []string
	var firsts []uint64
	for _, ent := range entries {
		first, err := strconv.ParseUint(strings.TrimSuffix(ent.Name(), segmentExt), 16, 64)
		if err != nil || ent.Name() != segmentName(first) {
			continue // not one of ours
		}
		paths = append(paths, filepath.Join(l.dir, ent.Name()))
		firsts = append(firsts, first)
	}
	return paths, firsts, nil
}

// recoverSegments scans the segments, validating every frame. On the first
// torn or corrupt frame it truncates that segment at the frame boundary and
// deletes all later segments: a crash can only tear the tail, so everything
// before the tear is a valid prefix and everything after it is garbage.
// The last surviving segment becomes the active one.
func (l *Log) recoverSegments() error {
	paths, firsts, err := l.listSegments()
	if err != nil {
		return err
	}
	l.seq = l.ckptSeq
	var torn bool
	var dropped []string // segments after a tear or a gap
	var kept string      // last segment kept on disk
	for i, path := range paths {
		if torn || firsts[i] > l.seq+1 {
			// Everything after a tear is unreachable garbage, and nothing
			// after a gap (a lost file) can be a contiguous extension of
			// the prefix.
			torn = true
			dropped = append(dropped, filepath.Base(path))
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		expect := firsts[i]
		off := 0
		for off < len(data) {
			seq, _, n, err := decodeFrame(data[off:])
			if err != nil || seq != expect {
				torn = true
				if terr := truncateFile(path, int64(off)); terr != nil {
					return terr
				}
				break
			}
			expect = seq + 1
			off += n
		}
		if expect > firsts[i] {
			// Segment holds at least one valid record.
			if last := expect - 1; last > l.seq {
				l.seq = last
			}
		}
		kept = path
	}
	if err := RemoveEntries(l.dir, dropped...); err != nil {
		return err
	}
	if kept != "" {
		// Reopen the last surviving segment for appending.
		f, err := os.OpenFile(kept, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		l.active, l.activeSize = f, st.Size()
	}
	return nil
}

func truncateFile(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	return f.Sync()
}

// Append writes one record with the next sequence number and returns it.
// Durability follows the configured SyncPolicy.
func (l *Log) Append(payload []byte) (uint64, error) {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch writes payloads as records with consecutive sequence numbers
// and returns the first one's. The SyncPolicy applies once to the whole
// batch: under SyncAlways one fsync covers every record (group commit). On
// error any of the frames may be on disk, the last one possibly torn.
func (l *Log) AppendBatch(payloads [][]byte) (uint64, error) {
	start := obs.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	first := l.seq + 1
	for _, payload := range payloads {
		frame := appendFrame(nil, l.seq+1, payload)
		if err := l.rotateIfNeeded(int64(len(frame))); err != nil {
			return 0, err
		}
		if _, err := l.active.Write(frame); err != nil {
			return 0, fmt.Errorf("wal: append: %w", err)
		}
		l.activeSize += int64(len(frame))
		l.seq++
		mBytes.Add(int64(len(frame)))
	}
	if l.opt.Sync == SyncAlways || l.opt.Sync == SyncInterval && time.Since(l.lastSync) >= syncInterval {
		if err := l.syncActive(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
		l.lastSync = time.Now()
	}
	mAppends.Add(int64(len(payloads)))
	mAppendNs.ObserveSince(start)
	return first, nil
}

// rotateIfNeeded opens a fresh segment when there is none or when writing
// frameLen more bytes would overflow the size budget of a non-empty one.
func (l *Log) rotateIfNeeded(frameLen int64) error {
	if l.active != nil && (l.activeSize == 0 || l.activeSize+frameLen <= l.opt.SegmentSize) {
		return nil
	}
	if l.active != nil {
		if err := l.closeActive(); err != nil {
			return fmt.Errorf("wal: rotate: %w", err)
		}
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segmentName(l.seq+1)), os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	mSegments.Inc()
	l.active, l.activeSize = f, 0
	return nil
}

// closeActive syncs and closes the active segment; the next append starts
// a fresh one. The caller holds l.mu and has checked l.active != nil.
func (l *Log) closeActive() error {
	err := l.active.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active, l.activeSize = nil, 0
	return err
}

// Close syncs and closes the log. Further appends fail with ErrClosed.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.active == nil {
		return nil
	}
	if err := l.closeActive(); err != nil {
		return fmt.Errorf("wal: close: %w", err)
	}
	return nil
}

// LastSeq returns the sequence number of the most recent record (the
// checkpoint sequence if no records follow it; 0 for an empty log).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// Replay calls fn for every record after the checkpoint, in sequence order.
// The payload slice is only valid during the call.
//
// Concurrency contract: Replay holds the log lock for the entire scan, so
// (a) fn must not call back into l — any Log method would self-deadlock —
// and (b) concurrent Appends block until the replay finishes. That is the
// right trade for recovery, where the caller owns the log and wants one
// consistent full pass. Tail-followers (replication streams) that must not
// stall the writer should use Records instead, which bounds itself to a
// LastSeq snapshot and scans without the lock; see tail.go for the safety
// argument.
func (l *Log) Replay(fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	return l.scan(l.ckptSeq+1, l.seq, fn)
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }
