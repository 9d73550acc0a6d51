package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Checkpoints. A checkpoint is a single file holding an opaque snapshot
// payload plus the sequence number of the last record the snapshot covers.
// It is written atomically (AtomicWrite), so a crash leaves either the old
// or the new checkpoint, never a torn one. After a checkpoint, segments
// containing only covered records are deleted: the log's length is bounded
// by the data written since the last checkpoint, which is the paper's
// Section 6.1 space-for-accuracy trade in log-compaction form. The log
// keeps only the covered sequence in memory; LastCheckpoint reads the
// payload from the file.
//
// Layout: FrameFile("WALCKPT1", uvarint covered sequence ‖ payload).

const checkpointName = "CHECKPOINT"

var checkpointMagic = []byte("WALCKPT1")

// Checkpoint atomically installs payload as the snapshot covering every
// record with sequence <= upTo, then deletes fully covered segments.
func (l *Log) Checkpoint(payload []byte, upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if upTo > l.seq {
		return fmt.Errorf("wal: checkpoint at %d beyond last record %d", upTo, l.seq)
	}
	if upTo < l.ckptSeq {
		return fmt.Errorf("wal: checkpoint at %d behind existing checkpoint %d", upTo, l.ckptSeq)
	}
	if err := l.installCheckpointLocked(payload, upTo); err != nil {
		return err
	}
	mCheckpoints.Inc()
	return l.compactLocked()
}

// installCheckpointLocked atomically writes the checkpoint file and updates
// the in-memory checkpoint sequence. The caller holds l.mu.
func (l *Log) installCheckpointLocked(payload []byte, upTo uint64) error {
	body := append(binary.AppendUvarint(nil, upTo), payload...)
	if err := AtomicWrite(filepath.Join(l.dir, checkpointName), FrameFile(checkpointMagic, body)); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.ckptSeq = upTo
	return nil
}

// compactLocked removes segments whose every record is covered by the
// checkpoint. The caller holds l.mu.
func (l *Log) compactLocked() error {
	// If even the newest records are covered, retire the active segment so
	// it can be deleted too; the next append starts a fresh one.
	if l.active != nil && l.seq <= l.ckptSeq {
		if err := l.closeActive(); err != nil {
			return fmt.Errorf("wal: compact: %w", err)
		}
	}
	paths, firsts, err := l.listSegments()
	if err != nil {
		return err
	}
	var covered []string
	for i, path := range paths {
		// The last record of segment i is just before the next segment's
		// first, or the log's last record for the final segment — the
		// active one, which is never covered while it stays open.
		last := l.seq
		if i+1 < len(firsts) {
			last = firsts[i+1] - 1
		}
		if last <= l.ckptSeq {
			covered = append(covered, filepath.Base(path))
		}
	}
	return RemoveEntries(l.dir, covered...)
}

// CheckpointSeq returns the sequence the checkpoint covers (0 when the log
// has none).
func (l *Log) CheckpointSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckptSeq
}

// LastCheckpoint reads and verifies the checkpoint file, returning its
// payload and the sequence it covers; ok is false when the log has no
// checkpoint.
func (l *Log) LastCheckpoint() (payload []byte, upTo uint64, ok bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return readCheckpoint(l.dir)
}

// readCheckpoint reads and verifies the checkpoint file in dir, if
// present.
func readCheckpoint(dir string) (payload []byte, upTo uint64, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if os.IsNotExist(err) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: %w", err)
	}
	body, err := UnframeFile(checkpointMagic, data)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: checkpoint file: %w", err)
	}
	upTo, n := binary.Uvarint(body)
	if n <= 0 {
		return nil, 0, false, errors.New("wal: malformed checkpoint sequence")
	}
	return body[n:], upTo, true, nil
}
