package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
)

// Storage files. Every whole file a stored history keeps beside its
// records — this log's CHECKPOINT, a replication node's EPOCH, a segment
// store's .seg and .idx — follows the same rules: it is framed as
//
//	magic ‖ body ‖ CRC-32C(magic ‖ body), the checksum 4 bytes LE
//
// (FrameFile, UnframeFile), replaced atomically (AtomicWrite), and removed
// with a directory fsync (RemoveEntries, RemoveDir), so a crash leaves
// either the old file or the new one, never a torn one a reader would
// trust.

// FrameFile returns magic ‖ body ‖ CRC-32C(magic ‖ body).
func FrameFile(magic, body []byte) []byte {
	buf := make([]byte, 0, len(magic)+len(body)+4)
	buf = append(append(buf, magic...), body...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// UnframeFile checks data's magic and checksum and returns its body, which
// aliases data. Its error names the mismatch and carries no package
// prefix: the caller says which file it read.
func UnframeFile(magic, data []byte) ([]byte, error) {
	if len(data) < len(magic)+4 || !bytes.HasPrefix(data, magic) {
		return nil, errors.New("bad magic")
	}
	n := len(data) - 4
	if crc32.Checksum(data[:n], castagnoli) != binary.LittleEndian.Uint32(data[n:]) {
		return nil, errors.New("checksum mismatch")
	}
	return data[len(magic):n], nil
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

// RemoveEntries removes the named files of dir, skipping those already
// gone, and then fsyncs dir once, so the removals survive a crash. It does
// nothing for no names.
func RemoveEntries(dir string, names ...string) error {
	if len(names) == 0 {
		return nil
	}
	for _, name := range names {
		if err := os.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("wal: %w", err)
		}
	}
	return syncDir(dir)
}

// RemoveDir removes the directory tree at path so that a crash never
// leaves it half removed under its name: it renames path to path+".tmp",
// fsyncs the parent directory and only then removes the renamed tree. A
// path that already ends in ".tmp" is such a leftover and is removed as
// it is. A missing path is not an error.
func RemoveDir(path string) error {
	aside := path
	if !strings.HasSuffix(path, ".tmp") {
		aside = path + ".tmp"
		if err := os.RemoveAll(aside); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if err := os.Rename(path, aside); os.IsNotExist(err) {
			return nil
		} else if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			return err
		}
	}
	if err := os.RemoveAll(aside); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	return nil
}

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
