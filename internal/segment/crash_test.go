package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/timestamp"
	"repro/internal/value"
)

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		sp, dp := filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())
		if ent.IsDir() {
			copyDir(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// segmentFiles lists the .seg, .idx and temp files in a store directory.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		if segFileRe.MatchString(ent.Name()) || filepath.Ext(ent.Name()) == ".tmp" {
			names = append(names, ent.Name())
		}
	}
	return names
}

// applyAndSeal checks that a recovered store keeps accepting changes and
// sealing: it applies one step a day after last and seals it.
func applyAndSeal(t *testing.T, st *Store, last timestamp.Time) {
	t.Helper()
	id := st.MaxID() + 1
	set := change.Set{
		change.CreNode{Node: id, Value: value.Str("recovered")},
		change.AddArc{Parent: st.active.Root(), Label: "recovered", Child: id},
	}
	if err := st.Apply(last.Add(86400e9), set); err != nil {
		t.Fatalf("Apply after recovery: %v", err)
	}
	if err := st.Seal(); err != nil {
		t.Fatalf("Seal after recovery: %v", err)
	}
}

// TestSealCrashSafety is the crash-safety property test for the seal
// sequence, mirroring the WAL torn-tail test: a crash at ANY byte offset
// of ANY file write during a seal must leave a store that reopens to a
// graph byte-identical with the monolithic database, and that can keep
// accepting changes and sealing.
//
// The seal sequence writes seg-N.seg, then seg-N.idx (each via a temp file
// and atomic rename), then the WAL tail checkpoint that commits them. For
// every prefix of completed writes we simulate the next write torn at
// sampled offsets, both as a leftover .tmp (crash before rename) and as the
// final name (a non-atomic filesystem surfacing a partial rename target).
// Until the checkpoint lands the tail holds the full pre-seal history and
// counts no segment, so Open must remove every file the seal left and
// report nothing sealed. The torn WAL checkpoint itself is the wal
// package's own torn-tail territory, covered by its tests.
func TestSealCrashSafety(t *testing.T) {
	root := t.TempDir()
	preDir := filepath.Join(root, "pre")

	// Build the pre-seal state once: a store with history but no seal.
	initial, h := guidegen.GenerateHistory(21, 10, 20, 5)
	mono := doem.New(initial.Clone())
	st, err := Create(preDir, doem.New(initial), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range h {
		mono.Apply(step.At, step.Ops)
		if err := st.Apply(step.At, step.Ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Produce the completed-seal files in a sibling copy.
	postDir := filepath.Join(root, "post")
	copyDir(t, preDir, postDir)
	st, err = Open(postDir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sealOrder := []string{segFileName(1), idxFileName(1)}

	lastStep := h[len(h)-1].At
	reopen := func(t *testing.T, dir string) *Store {
		t.Helper()
		st, err := Open(dir, nil, nil)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if n := st.Segments(); n != 0 {
			t.Fatalf("segments = %d, want 0: no checkpoint counted the seal", n)
		}
		if left := segmentFiles(t, dir); len(left) != 0 {
			t.Fatalf("Open left the uncommitted seal's files %v", left)
		}
		checkGraphParity(t, mono, st)
		return st
	}
	scenario := 0
	for tornIdx := 0; tornIdx < len(sealOrder); tornIdx++ {
		full, err := os.ReadFile(filepath.Join(postDir, sealOrder[tornIdx]))
		if err != nil {
			t.Fatal(err)
		}
		offsets := []int{0, 1, len(full) / 3, len(full) / 2, len(full) - 1}
		for _, off := range offsets {
			for _, asTmp := range []bool{true, false} {
				scenario++
				name := fmt.Sprintf("torn-%s-at-%d-tmp-%v", sealOrder[tornIdx], off, asTmp)
				t.Run(name, func(t *testing.T) {
					dir := filepath.Join(root, fmt.Sprintf("s%03d", scenario))
					copyDir(t, preDir, dir)
					for i := 0; i < tornIdx; i++ {
						copyFile(t, filepath.Join(postDir, sealOrder[i]), filepath.Join(dir, sealOrder[i]))
					}
					torn := sealOrder[tornIdx]
					if asTmp {
						torn += ".tmp"
					}
					if err := os.WriteFile(filepath.Join(dir, torn), full[:off], 0o644); err != nil {
						t.Fatal(err)
					}
					st := reopen(t, dir)
					defer st.Close()
					applyAndSeal(t, st, lastStep)
				})
			}
		}
	}

	// A crash after every seal write but before the WAL checkpoint: both
	// files complete, the tail still holding the pre-seal history. Open
	// discards the uncommitted seal, and sealing again writes the same
	// bytes.
	t.Run("complete-files-unCheckpointed-tail", func(t *testing.T) {
		dir := filepath.Join(root, "redo")
		copyDir(t, preDir, dir)
		for _, f := range sealOrder {
			copyFile(t, filepath.Join(postDir, f), filepath.Join(dir, f))
		}
		st := reopen(t, dir)
		defer st.Close()
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
		for _, f := range sealOrder {
			want, err := os.ReadFile(filepath.Join(postDir, f))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil {
				t.Fatal(err)
			}
			if string(want) != string(got) {
				t.Errorf("sealing again produced different bytes for %s", f)
			}
		}
		checkGraphParity(t, mono, st)
	})
}

// TestTruncateCrashSafety: Truncate commits the truncated history with a
// tail checkpoint that counts no segment, then removes the segment files.
// A crash after the checkpoint — with none, some or all of the removals
// on disk, with or without the log compaction the checkpoint triggers, and
// with temp files left over — must reopen to the monolithic database
// truncated at the same instant, and keep accepting changes and seals.
func TestTruncateCrashSafety(t *testing.T) {
	root := t.TempDir()
	preDir := filepath.Join(root, "pre")
	mono, st := buildPair(t, preDir, 10, func(i int) bool { return i%6 == 5 }, nil)
	segs := st.Segments()
	if segs < 3 {
		t.Fatalf("%d segments sealed, want at least 3", segs)
	}
	steps := mono.Steps()
	at := steps[len(steps)-2]
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	truncated, err := mono.Truncate(at)
	if err != nil {
		t.Fatal(err)
	}

	// The truncated tail log, with and without the compaction that follows
	// its checkpoint.
	postDir := filepath.Join(root, "post")
	copyDir(t, preDir, postDir)
	st, err = Open(postDir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Truncate(at); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Truncate removes each segment's .seg, then its .idx, in id order.
	var removals []string
	for id := 1; id <= segs; id++ {
		removals = append(removals, segFileName(id), idxFileName(id))
	}
	for _, landed := range []int{0, 1, 3, len(removals)} {
		for _, compacted := range []bool{false, true} {
			for _, temps := range []bool{false, true} {
				name := fmt.Sprintf("removed-%d-compacted-%v-tmp-%v", landed, compacted, temps)
				t.Run(name, func(t *testing.T) {
					dir := filepath.Join(root, name)
					copyDir(t, preDir, dir)
					tail := filepath.Join(dir, tailDirName)
					if compacted {
						if err := os.RemoveAll(tail); err != nil {
							t.Fatal(err)
						}
					}
					copyDir(t, filepath.Join(postDir, tailDirName), tail)
					for _, f := range removals[:landed] {
						if err := os.Remove(filepath.Join(dir, f)); err != nil {
							t.Fatal(err)
						}
					}
					if temps {
						for _, f := range []string{segFileName(segs) + ".tmp", idxFileName(segs+1) + ".tmp"} {
							if err := os.WriteFile(filepath.Join(dir, f), []byte("torn"), 0o644); err != nil {
								t.Fatal(err)
							}
						}
					}
					st, err := Open(dir, nil, nil)
					if err != nil {
						t.Fatalf("Open: %v", err)
					}
					defer st.Close()
					if n := st.Segments(); n != 0 {
						t.Fatalf("segments = %d, want 0 after a committed Truncate", n)
					}
					if left := segmentFiles(t, dir); len(left) != 0 {
						t.Fatalf("Open left %v beside a checkpoint that counts no segment", left)
					}
					checkGraphParity(t, truncated, st)
					applyAndSeal(t, st, steps[len(steps)-1])
				})
			}
		}
	}
}
