package wal

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestFileBytesPinned pins the bytes of a record segment and of a
// CHECKPOINT file written with fixed payloads, so neither layout can
// change without this test saying so. The bytes are those of commit
// 0f83b6e, before every storage file was framed by FrameFile.
func TestFileBytesPinned(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, &Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, p := range []string{"one", "two", "three"} {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	seg, err := os.ReadFile(filepath.Join(dir, "0000000000000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint([]byte("snapshot"), 2); err != nil {
		t.Fatal(err)
	}
	ckpt, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"segment", seg, "04000000016f6e65ecf0d2df040000000274776f9f78bcc506000000037468726565d990a03a"},
		{"CHECKPOINT", ckpt, "57414c434b50543102736e617073686f747c5a3a92"},
	} {
		if got := hex.EncodeToString(c.data); got != c.want {
			t.Errorf("%s bytes %s, pinned %s", c.name, got, c.want)
		}
	}
}
