package segment

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/wal"
)

// TestSealedBytesPinned seals the paper's history (Figure 3) under a fixed
// policy and pins the SHA-256 of each segment file, so the sealed format
// cannot change without this test saying so. Seven annotations seal the
// first two steps; an explicit Seal seals the third. The sums are those of
// commit dede60e, before the base and steps were written through
// doem.AppendHistory.
func TestSealedBytesPinned(t *testing.T) {
	want := map[string]string{
		"seg-000001.seg": "f049c8542d9787ef03a8021f2cb50aea99b07b920ceeef45e5e6c40b9c315cf6",
		"seg-000002.seg": "06fec3ed86b7caf16cd2a41ced2fa38bcbefd0b8ea599af81c7912f271086acd",
	}
	guide, ids := guidegen.PaperGuide()
	dir := t.TempDir()
	st, err := Create(dir, doem.New(guide), &wal.Options{Sync: wal.SyncNever}, &Policy{SealAnnotations: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, step := range guidegen.PaperHistory(ids) {
		if err := st.Apply(step.At, step.Ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if st.Segments() != len(want) {
		t.Fatalf("%d sealed segments, want %d", st.Segments(), len(want))
	}
	for name, sum := range want {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(data)
		if got := hex.EncodeToString(h[:]); got != sum {
			t.Errorf("%s: SHA-256 %s, pinned %s", name, got, sum)
		}
	}
}
