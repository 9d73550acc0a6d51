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
// first two steps; an explicit Seal seals the third. The .seg sums are
// those of the DSEG2 layout, whose base snapshot is the change set that
// builds it (doem.AppendHistory) rather than JSON; the .idx sums those of
// commit df60909, before the index was held in sorted sections instead of
// maps. An index rebuilt from its segment has the same bytes as the one
// the seal wrote.
func TestSealedBytesPinned(t *testing.T) {
	want := map[string]string{
		"seg-000001.seg": "a8b4635a57454668ae51b994e60e0f607a6be87fde13ff6d1f0e32566a327ad7",
		"seg-000002.seg": "a3281273604e74afdc3908381f22fb153ee6cc8ebf38cdb263002bb0b7034991",
		"seg-000001.idx": "821644f9d779751671e60e7cf58cd0c293f3460a4344085c1d28bd3905abfd66",
		"seg-000002.idx": "42d3b2586e5e1d3f36928af11b85f2a04f15275bc71fadfe93dc2475171ed12d",
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
	if st.Segments() != len(want)/2 {
		t.Fatalf("%d sealed segments, want %d", st.Segments(), len(want)/2)
	}
	check := func(when string) {
		t.Helper()
		for name, sum := range want {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.Sum256(data)
			if got := hex.EncodeToString(h[:]); got != sum {
				t.Errorf("%s: %s: SHA-256 %s, pinned %s", when, name, got, sum)
			}
		}
	}
	check("sealed")

	for _, h := range st.segs {
		if err := os.Remove(filepath.Join(dir, idxFileName(h.id))); err != nil {
			t.Fatal(err)
		}
		h.idx = nil
		if _, err := st.index(h); err != nil {
			t.Fatal(err)
		}
	}
	check("rebuilt")
}
