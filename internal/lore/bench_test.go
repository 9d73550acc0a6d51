package lore

import (
	"fmt"
	"io"
	"log"
	"path/filepath"
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/wal"
)

// BenchmarkPersistence is the B10 series of EXPERIMENTS.md: one generated
// history persisted through a Store (ApplySet appends the delta to the
// segment store's log) and through the baseline that rewrites the whole
// stored database (doem.Append) on every step, then reloaded (tail
// checkpoint + log replay). The persist sub-benchmarks time the whole history and report
// the per-change-set cost as ns/set. SyncNever isolates the I/O volume
// from the durability policy.
func BenchmarkPersistence(b *testing.B) {
	// Every open logs its replay summary; keep the output a table.
	defer log.SetOutput(log.Writer())
	log.SetOutput(io.Discard)
	opt := &wal.Options{Sync: wal.SyncNever}
	for _, steps := range []int{10, 50, 200} {
		initial, h := guidegen.GenerateHistory(2, 100, steps, 8)
		for _, mode := range []struct {
			name    string
			persist func(b *testing.B, dir string, initial *oem.Database, h change.History)
		}{{"segment-append", storeAppend(opt)}, {"full-rewrite", fullRewrite}} {
			b.Run(fmt.Sprintf("steps=%d/%s", steps, mode.name), func(b *testing.B) {
				b.StopTimer()
				for i := 0; i < b.N; i++ {
					mode.persist(b, b.TempDir(), initial, h)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(h)), "ns/set")
			})
		}
		dir := b.TempDir()
		storeAppend(opt)(b, dir, initial, h)
		b.Run(fmt.Sprintf("steps=%d/load", steps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s, err := OpenSegmented(dir, opt, nil)
				if err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
		})
	}
}

// storeAppend persists a history through Store.ApplySet. Like fullRewrite
// it is entered with the timer stopped and times only the steps.
func storeAppend(opt *wal.Options) func(b *testing.B, dir string, initial *oem.Database, h change.History) {
	return func(b *testing.B, dir string, initial *oem.Database, h change.History) {
		b.Helper()
		s, err := OpenSegmented(dir, opt, nil)
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
}

// fullRewrite is B10's baseline: every step applies in memory and then
// rewrites the whole stored database into one file.
func fullRewrite(b *testing.B, dir string, initial *oem.Database, h change.History) {
	b.Helper()
	d := doem.New(initial)
	path := filepath.Join(dir, "guide.doem")
	write := func() {
		if err := wal.AtomicWrite(path, doem.Append(nil, d)); err != nil {
			b.Fatal(err)
		}
	}
	write()
	b.StartTimer()
	for _, step := range h {
		if err := d.Apply(step.At, step.Ops); err != nil {
			b.Fatal(err)
		}
		write()
	}
	b.StopTimer()
}
