package segment

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
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

// TestSealCrashSafety is the crash-safety property test for the seal
// sequence, mirroring the WAL torn-tail test: a crash at ANY byte offset
// of ANY file write during a seal must leave a store that reopens to a
// graph byte-identical with the monolithic database, and that can keep
// accepting changes and sealing.
//
// The seal sequence writes seg-N.seg, then seg-N.idx, then STATE (each via
// a temp file and atomic rename), then the WAL tail checkpoint. For every
// prefix of completed writes we simulate the next write torn at sampled
// offsets, both as a leftover .tmp (crash before rename) and as the final
// name (a non-atomic filesystem surfacing a partial rename target). The
// torn WAL checkpoint itself is the wal package's own torn-tail territory,
// covered by its tests; here the tail always holds the full pre-seal
// history, which is exactly the state every pre-checkpoint crash leaves.
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
	sealOrder := []string{segFileName(1), idxFileName(1), stateName}

	lastStep := h[len(h)-1].At
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

					st, err := Open(dir, nil, nil)
					if err != nil {
						t.Fatalf("Open after torn %s: %v", name, err)
					}
					defer st.Close()
					checkGraphParity(t, mono, st)

					// The recovered store must remain fully operational.
					id := st.MaxID() + 1
					set := change.Set{
						change.CreNode{Node: id, Value: value.Str("recovered")},
						change.AddArc{Parent: st.active.Root(), Label: "recovered", Child: id},
					}
					at := lastStep.Add(86400e9)
					if err := st.Apply(at, set); err != nil {
						t.Fatalf("Apply after recovery: %v", err)
					}
					if err := st.Seal(); err != nil {
						t.Fatalf("Seal after recovery: %v", err)
					}
				})
			}
		}
	}

	// A crash after every seal write but before the WAL checkpoint: all
	// three files complete, tail still holding the pre-seal history. Open
	// must redo the seal to identical bytes.
	t.Run("complete-files-unCheckpointed-tail", func(t *testing.T) {
		dir := filepath.Join(root, "redo")
		copyDir(t, preDir, dir)
		for _, f := range sealOrder {
			copyFile(t, filepath.Join(postDir, f), filepath.Join(dir, f))
		}
		st, err := Open(dir, nil, nil)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer st.Close()
		if n := st.Segments(); n != 1 {
			t.Fatalf("segments = %d, want 1 (idempotent redo)", n)
		}
		checkGraphParity(t, mono, st)
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
				t.Errorf("redo produced different bytes for %s", f)
			}
		}
	})
}
