package lore

import (
	"fmt"
	"io"
	"log"
	"path/filepath"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/wal"
)

// BenchmarkPersistence is the B10 series of EXPERIMENTS.md: one generated
// history persisted through a WAL-backed Store (ApplySet appends the
// delta) and through a snapshot-backed one (ApplySet rewrites the whole
// database file), then reloaded (checkpoint + log replay) and scanned the
// way crash recovery scans the log. The persist sub-benchmarks time the
// whole history and report the per-change-set cost as ns/set. SyncNever
// isolates the I/O volume from the durability policy.
func BenchmarkPersistence(b *testing.B) {
	// Every open logs its replay summary; keep the output a table.
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard)
	opt := &wal.Options{Sync: wal.SyncNever}
	openWAL := func(dir string) (*Store, error) { return OpenWAL(dir, opt) }
	for _, steps := range []int{10, 50, 200} {
		initial, h := guidegen.GenerateHistory(2, 100, steps, 8)
		// persist is entered with the timer stopped and times only the
		// ApplySet calls.
		persist := func(b *testing.B, open func(string) (*Store, error), dir string) {
			b.Helper()
			s, err := open(dir)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if err := s.PutDOEM("guide", doem.New(initial)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, step := range h {
				if err := s.ApplySet("guide", step.At, step.Ops); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		}
		for _, mode := range []struct {
			name string
			open func(string) (*Store, error)
		}{{"wal-append", openWAL}, {"snapshot-rewrite", Open}} {
			b.Run(fmt.Sprintf("steps=%d/%s", steps, mode.name), func(b *testing.B) {
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					persist(b, mode.open, b.TempDir())
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(h)), "ns/set")
			})
		}
		dir := b.TempDir()
		persist(b, openWAL, dir)
		b.Run(fmt.Sprintf("steps=%d/load", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := OpenWAL(dir, opt)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
		b.Run(fmt.Sprintf("steps=%d/recovery", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				l, err := wal.Open(filepath.Join(dir, "guide.doemwal"), opt)
				if err != nil {
					b.Fatal(err)
				}
				l.Close()
			}
		})
	}
}
