package wal

import (
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
)

// benchLog fills a log with the steps of a generated history and returns
// its directory.
func benchLog(b *testing.B, steps int) (string, *Options) {
	b.Helper()
	opt := &Options{Sync: SyncNever}
	dir := b.TempDir()
	initial, h := guidegen.GenerateHistory(1, 50, steps, 10)
	l, err := Open(dir, opt)
	if err != nil {
		b.Fatal(err)
	}
	if err := checkpointDOEM(l, doem.New(initial)); err != nil {
		b.Fatal(err)
	}
	for _, step := range h {
		if _, err := appendStep(l, step); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	return dir, opt
}

func BenchmarkWALAppend(b *testing.B) {
	_, h := guidegen.GenerateHistory(1, 50, 64, 10)
	l, err := Open(b.TempDir(), &Options{Sync: SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step := h[i%len(h)]
		if _, err := appendStep(l, step); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALReplay(b *testing.B) {
	dir, opt := benchLog(b, 200)
	l, err := Open(dir, opt)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := replayDOEM(l); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALRecovery(b *testing.B) {
	dir, opt := benchLog(b, 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := Open(dir, opt)
		if err != nil {
			b.Fatal(err)
		}
		l.Close()
	}
}
