package main

import (
	"fmt"
	"testing"

	"repro/internal/doem"
	"repro/internal/index"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/value"
)

// newExistsDB builds the early-exit workload: the root carries n "item"
// arcs to integer atoms, with the single witness value 7 at position pos.
func newExistsDB(n, pos int) *doem.Database {
	db := oem.New()
	for i := 0; i < n; i++ {
		v := int64(i) + 1000
		if i == pos {
			v = 7
		}
		c := db.CreateNode(value.Int(v))
		if err := db.AddArc(db.Root(), "item", c); err != nil {
			panic(err)
		}
	}
	return doem.New(db)
}

// existsEngine wraps d in an indexed graph and a fresh engine.
func existsEngine(d *doem.Database) *lorel.Engine {
	e := lorel.NewEngine()
	e.Register("guide", index.NewGraph(d))
	return e
}

// existsQuery has a single witness, so its cost tracks the witness's
// position when exists stops at the first one.
const existsQuery = `select guide where exists X in guide.item : X = 7`

// b16 is the exists early-exit check: with the witness first, exists must
// cost a small constant; with it last, the full scan. The ratio is the
// evidence that work is proportional to the witness position.
func b16() {
	fmt.Println("\n-- B16: exists early exit --")
	n := scale(10000)
	eEarly := existsEngine(newExistsDB(n, 0))
	eLate := existsEngine(newExistsDB(n, n-1))
	earlyNs := measure(func() {
		if _, err := eEarly.Query(existsQuery); err != nil {
			panic(err)
		}
	})
	lateNs := measure(func() {
		if _, err := eLate.Query(existsQuery); err != nil {
			panic(err)
		}
	})
	ratio := float64(lateNs) / float64(earlyNs)
	fmt.Printf("  exists early-exit: witness-first %s, witness-last %s (%.1fx)\n",
		earlyNs, lateNs, ratio)

	check("B16b", "exists cost proportional to witness position (late/early >= 5x)",
		ratio >= 5)
}

// runExistsJSON is B16 in JSON form: the gated exists early-exit ratio
// (witness-last over witness-first cost; a collapse back toward 1 means
// exists is materializing its candidates again).
func runExistsJSON(report *benchReport, bench func(string, func(*testing.B)) testing.BenchmarkResult) error {
	obs.SetEnabled(false)
	nsOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }

	const n = 10000
	eEarly := existsEngine(newExistsDB(n, 0))
	eLate := existsEngine(newExistsDB(n, n-1))
	early := nsOp(bench("exists-witness-first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eEarly.Query(existsQuery); err != nil {
				panic(err)
			}
		}
	}))
	late := nsOp(bench("exists-witness-last", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eLate.Query(existsQuery); err != nil {
				panic(err)
			}
		}
	}))
	report.ExistsEarlyExitRatio = late / early

	obs.SetEnabled(true)
	return nil
}
