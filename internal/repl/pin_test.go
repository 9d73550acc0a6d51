package repl

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestEpochFileBytesPinned pins the bytes of an EPOCH file, so its layout
// cannot change without this test saying so, and reads it back. The bytes
// are those of commit 0f83b6e, before the file was framed by
// wal.FrameFile.
func TestEpochFileBytesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), epochFile)
	if err := saveEpoch(path, 300); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(data), "515245504c455031ac02b4afdeb6"; got != want {
		t.Errorf("EPOCH bytes %s, pinned %s", got, want)
	}
	if got, err := loadEpoch(path); err != nil || got != 300 {
		t.Errorf("loadEpoch = %d, %v; want 300", got, err)
	}
}
