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
	"sort"
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
	// SyncInterval fsyncs at most once per Options.SyncEvery, piggybacked
	// on appends; a crash can lose the records since the last sync, but
	// recovery still yields a valid prefix.
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
	// SyncEvery is the maximum time between fsyncs under SyncInterval.
	// Default 100ms.
	SyncEvery time.Duration
}

func (o *Options) withDefaults() Options {
	var opt Options
	if o != nil {
		opt = *o
	}
	if opt.SegmentSize <= 0 {
		opt.SegmentSize = 4 << 20
	}
	if opt.SyncEvery <= 0 {
		opt.SyncEvery = 100 * time.Millisecond
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
	active     *os.File // nil until the first append after Open/Checkpoint
	activePath string
	activeSize int64
	seq        uint64 // sequence of the last appended record (0 = none yet)
	ckptSeq    uint64 // records with seq <= ckptSeq are covered by the checkpoint
	ckptData   []byte
	hasCkpt    bool
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
	l := &Log{dir: dir, opt: opt.withDefaults()}
	if err := l.loadCheckpoint(); err != nil {
		return nil, err
	}
	if err := l.recoverSegments(); err != nil {
		return nil, err
	}
	return l, nil
}

// segmentPath names the segment whose first record has sequence firstSeq.
func (l *Log) segmentPath(firstSeq uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%016x%s", firstSeq, segmentExt))
}

// listSegments returns the segment file names in ascending first-sequence
// order, with their parsed first sequences.
func (l *Log) listSegments() ([]string, []uint64, error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	var paths []string
	var firsts []uint64
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasSuffix(name, segmentExt) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segmentExt), 16, 64)
		if err != nil {
			continue // not one of ours
		}
		paths = append(paths, filepath.Join(l.dir, name))
		firsts = append(firsts, first)
	}
	sort.Sort(&segmentSort{paths, firsts})
	return paths, firsts, nil
}

type segmentSort struct {
	paths  []string
	firsts []uint64
}

func (s *segmentSort) Len() int           { return len(s.paths) }
func (s *segmentSort) Less(i, j int) bool { return s.firsts[i] < s.firsts[j] }
func (s *segmentSort) Swap(i, j int) {
	s.paths[i], s.paths[j] = s.paths[j], s.paths[i]
	s.firsts[i], s.firsts[j] = s.firsts[j], s.firsts[i]
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
	var keptPath string // last segment kept on disk
	for i, path := range paths {
		if torn {
			// Everything after a tear is unreachable garbage.
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("wal: dropping post-tear segment: %w", err)
			}
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if firsts[i] > l.seq+1 {
			// A gap before this segment (a lost file): nothing at or
			// after it can be a contiguous extension of the prefix.
			torn = true
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("wal: dropping post-gap segment: %w", err)
			}
			continue
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
		keptPath = path
	}
	if keptPath != "" {
		// Reopen the last surviving segment for appending.
		f, err := os.OpenFile(keptPath, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fmt.Errorf("wal: %w", err)
		}
		l.active, l.activePath, l.activeSize = f, keptPath, st.Size()
	}
	if torn {
		if err := syncDir(l.dir); err != nil {
			return err
		}
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
	switch l.opt.Sync {
	case SyncAlways:
		if err := l.syncActive(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opt.SyncEvery {
			if err := l.syncActive(); err != nil {
				return 0, fmt.Errorf("wal: sync: %w", err)
			}
			l.lastSync = time.Now()
		}
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
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("wal: rotate: %w", err)
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: rotate: %w", err)
		}
		l.active = nil
	}
	path := l.segmentPath(l.seq + 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	mSegments.Inc()
	l.active, l.activePath, l.activeSize = f, path, 0
	return nil
}

// Sync forces buffered appends to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.active == nil {
		return nil
	}
	if err := l.syncActive(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.lastSync = time.Now()
	return nil
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
	if err := l.active.Sync(); err != nil {
		l.active.Close()
		return fmt.Errorf("wal: close: %w", err)
	}
	err := l.active.Close()
	l.active = nil
	if err != nil {
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
	paths, _, err := l.listSegments()
	if err != nil {
		return err
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		off := 0
		for off < len(data) {
			seq, payload, n, err := decodeFrame(data[off:])
			if err != nil {
				return fmt.Errorf("wal: replay %s at offset %d: %w", filepath.Base(path), off, err)
			}
			off += n
			if seq <= l.ckptSeq {
				continue
			}
			if err := fn(seq, payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// syncDir fsyncs a directory so entry creations, renames, and removals
// survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}
