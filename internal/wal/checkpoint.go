package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Checkpoints. A checkpoint is a single file holding an opaque snapshot
// payload plus the sequence number of the last record the snapshot covers.
// It is written atomically (temp file + fsync + rename + directory fsync),
// so a crash leaves either the old or the new checkpoint, never a torn one.
// After a checkpoint, segments containing only covered records are deleted:
// the log's length is bounded by the data written since the last
// checkpoint, which is the paper's Section 6.1 space-for-accuracy trade in
// log-compaction form.
//
// Layout: "WALCKPT1" magic, uvarint covered sequence, payload, and a
// trailing CRC-32C of everything before it (4 bytes LE).

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
// the in-memory checkpoint state. The caller holds l.mu.
func (l *Log) installCheckpointLocked(payload []byte, upTo uint64) error {
	buf := append([]byte(nil), checkpointMagic...)
	buf = binary.AppendUvarint(buf, upTo)
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))

	if err := AtomicWrite(filepath.Join(l.dir, checkpointName), buf); err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	l.ckptSeq = upTo
	l.ckptData = append([]byte(nil), payload...)
	l.hasCkpt = true
	return nil
}

// compactLocked removes segments whose every record is covered by the
// checkpoint. The caller holds l.mu.
func (l *Log) compactLocked() error {
	// If even the newest records are covered, retire the active segment so
	// it can be deleted too; the next append starts a fresh one.
	if l.active != nil && l.seq <= l.ckptSeq {
		if err := l.active.Sync(); err != nil {
			return fmt.Errorf("wal: compact: %w", err)
		}
		if err := l.active.Close(); err != nil {
			return fmt.Errorf("wal: compact: %w", err)
		}
		l.active, l.activePath, l.activeSize = nil, "", 0
	}
	paths, firsts, err := l.listSegments()
	if err != nil {
		return err
	}
	removed := false
	for i, path := range paths {
		if path == l.activePath {
			continue
		}
		// The last record of segment i is just before the next segment's
		// first, or the log's last record for the final segment.
		last := l.seq
		if i+1 < len(firsts) {
			last = firsts[i+1] - 1
		}
		if last <= l.ckptSeq {
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("wal: compact: %w", err)
			}
			removed = true
		}
	}
	if removed {
		return syncDir(l.dir)
	}
	return nil
}

// LastCheckpoint returns the current checkpoint payload and the sequence it
// covers. ok is false when the log has no checkpoint.
func (l *Log) LastCheckpoint() (payload []byte, upTo uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.hasCkpt {
		return nil, 0, false
	}
	return append([]byte(nil), l.ckptData...), l.ckptSeq, true
}

// loadCheckpoint reads and validates the checkpoint file, if present.
func (l *Log) loadCheckpoint() error {
	data, err := os.ReadFile(filepath.Join(l.dir, checkpointName))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	n := len(data)
	if n < len(checkpointMagic)+1+4 || string(data[:len(checkpointMagic)]) != string(checkpointMagic) {
		return fmt.Errorf("wal: malformed checkpoint file")
	}
	body, sum := data[:n-4], binary.LittleEndian.Uint32(data[n-4:])
	if crc32.Checksum(body, castagnoli) != sum {
		return fmt.Errorf("wal: checkpoint checksum mismatch")
	}
	rest := body[len(checkpointMagic):]
	seq, vn := binary.Uvarint(rest)
	if vn <= 0 {
		return fmt.Errorf("wal: malformed checkpoint sequence")
	}
	l.ckptSeq = seq
	l.ckptData = append([]byte(nil), rest[vn:]...)
	l.hasCkpt = true
	return nil
}

// AtomicWrite replaces the file at path with data durably: it writes
// path+".tmp", fsyncs it, renames it over path and fsyncs the directory,
// so a crash leaves either the old file or the new one, never a torn one,
// and a returned nil means the rename is on disk. It returns every error,
// the directory's open and fsync included, and removes the temporary file
// when it fails before the rename.
func AtomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("wal: %w", err)
	}
	return syncDir(filepath.Dir(path))
}
