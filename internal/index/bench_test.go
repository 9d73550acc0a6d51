package index

import (
	"fmt"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lorel"
)

// benchDB builds a synthetic guide whose history carries roughly the
// requested number of annotations.
func benchDB(b *testing.B, annots int) *doem.Database {
	b.Helper()
	steps := annots / 8
	if steps < 1 {
		steps = 1
	}
	initial, h := guidegen.GenerateHistory(9, 40, steps, 10)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkIndexedEval compares repeated evaluation of the hot query
// shapes — a <at T> snapshot query and an exact-label annotation query —
// through the view memo vs on the database itself.
func BenchmarkIndexedEval(b *testing.B) {
	for _, tier := range []struct {
		name   string
		annots int
	}{
		{"1k", 1000},
		{"10k", 10000},
	} {
		d := benchDB(b, tier.annots)
		steps := d.Steps()
		at := steps[len(steps)/2]
		queries := []string{
			// Time-travelled values: every price node's upd chain is
			// consulted; the memo serves the <at T> arcs from one view.
			fmt.Sprintf(`select P from guide.<at %q>restaurant.price P where P < 20`, at.String()),
			fmt.Sprintf(`select guide.<at %q>restaurant.name`, at.String()),
		}
		for _, mode := range []string{"memo", "doem"} {
			b.Run(tier.name+"/"+mode, func(b *testing.B) {
				eng := lorel.NewEngine()
				if mode == "memo" {
					eng.Register("guide", NewGraph(d))
				} else {
					eng.Register("guide", d)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, q := range queries {
						if _, err := eng.Query(q); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
