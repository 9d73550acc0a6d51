package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/doem"
	"repro/internal/index"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/symbol"
	"repro/internal/value"
)

// newInternDB builds the B16 workload: a flat guide with n restaurants,
// each carrying a name and five attribute arcs whose labels are drawn from
// a 20-label alphabet. Every label string is formatted fresh per arc, the
// way a WAL or segment decoder would allocate it, so label storage is
// duplicated n times over without interning and deduplicated to the
// alphabet with it.
func newInternDB(n int) *doem.Database {
	db := oem.New()
	for i := 0; i < n; i++ {
		r := db.CreateNode(value.Complex())
		if err := db.AddArc(db.Root(), fmt.Sprintf("restauran%c", 't'), r); err != nil {
			panic(err)
		}
		name := db.CreateNode(value.Str(fmt.Sprintf("place-%d", i)))
		if err := db.AddArc(r, fmt.Sprintf("nam%c", 'e'), name); err != nil {
			panic(err)
		}
		for k := 0; k < 5; k++ {
			c := db.CreateNode(value.Int(int64(5 + (i+k)%40)))
			if err := db.AddArc(r, fmt.Sprintf("attr%02d", (i+k)%20), c); err != nil {
				panic(err)
			}
		}
	}
	return doem.New(db)
}

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

// internEngine wraps d in an indexed graph and a fresh engine, so the A/B
// compares the same stack: string-keyed index tables on one side,
// symbol-keyed tables on the other.
func internEngine(d *doem.Database) *lorel.Engine {
	e := lorel.NewEngine()
	e.Register("guide", index.NewGraph(d))
	return e
}

// internQueries is the mixed eval op the B16 table measures: count and max
// aggregates, a selective two-generator traversal (per-binding exact-label
// matching, where interned probes pay), and an existential with an
// immediate witness, which anchors the workload shape without
// differentiating the A/B.
func internQueries(e *lorel.Engine) {
	if _, err := e.Query(`select count(guide.restaurant.attr03)`); err != nil {
		panic(err)
	}
	if _, err := e.Query(`select max(guide.restaurant.attr02)`); err != nil {
		panic(err)
	}
	if _, err := e.Query(`select R from guide.restaurant R, R.attr03 X where X < 0`); err != nil {
		panic(err)
	}
	if _, err := e.Query(`select guide where exists N in guide.restaurant.name : N like "place%"`); err != nil {
		panic(err)
	}
}

// withGates runs fn with interning forced on or off, restoring the
// previous gate state after.
func withGates(on bool, fn func()) {
	defer symbol.SetEnabled(symbol.SetEnabled(on))
	fn()
}

func b16() {
	fmt.Println("\n-- B16: interned symbols vs string-keyed labels --")
	tiers := []int{scale(1000), scale(10000), scale(100000)}
	fmt.Printf("  %8s %12s %12s %9s %12s %12s\n",
		"objects", "string/op", "intern/op", "speedup", "rss-string", "rss-intern")
	for _, n := range tiers {
		var offNs, onNs time.Duration
		var offHeap, onHeap int64
		withGates(false, func() {
			pre := int64(heapInUse())
			d := newInternDB(n)
			offHeap = int64(heapInUse()) - pre
			e := internEngine(d)
			offNs = measure(func() { internQueries(e) })
		})
		withGates(true, func() {
			pre := int64(heapInUse())
			d := newInternDB(n)
			onHeap = int64(heapInUse()) - pre
			e := internEngine(d)
			onNs = measure(func() { internQueries(e) })
		})
		fmt.Printf("  %8d %12s %12s %8.1fx %9.1f MiB %9.1f MiB\n",
			n, offNs, onNs, float64(offNs)/float64(onNs), float64(offHeap)/(1<<20), float64(onHeap)/(1<<20))
	}

	// Early-exit behavior: with the witness first, exists must cost a
	// small constant; with it last, the full scan. The ratio is the
	// evidence that work is proportional to the witness position.
	n := scale(10000)
	var earlyNs, lateNs time.Duration
	withGates(true, func() {
		eEarly := internEngine(newExistsDB(n, 0))
		eLate := internEngine(newExistsDB(n, n-1))
		q := `select guide where exists X in guide.item : X = 7`
		earlyNs = measure(func() {
			if _, err := eEarly.Query(q); err != nil {
				panic(err)
			}
		})
		lateNs = measure(func() {
			if _, err := eLate.Query(q); err != nil {
				panic(err)
			}
		})
	})
	ratio := float64(lateNs) / float64(earlyNs)
	fmt.Printf("  exists early-exit: witness-first %s, witness-last %s (%.1fx)\n",
		earlyNs, lateNs, ratio)

	check("B16b", "exists cost proportional to witness position (late/early >= 5x)",
		ratio >= 5)
}

// runInternJSON is B16 in JSON form: the interning A/B as reported
// benchmarks, and the gated exists early-exit ratio (witness-last over
// witness-first cost; a collapse back toward 1 means exists is
// materializing its candidates again).
func runInternJSON(report *benchReport, bench func(string, func(*testing.B)) testing.BenchmarkResult) error {
	obs.SetEnabled(false)
	nsOp := func(r testing.BenchmarkResult) float64 { return float64(r.T.Nanoseconds()) / float64(r.N) }

	run := func(name string, n int, gates bool) {
		withGates(gates, func() {
			e := internEngine(newInternDB(n))
			bench(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					internQueries(e)
				}
			})
		})
	}
	run("intern-eval-1k-string", 1000, false)
	run("intern-eval-1k-intern", 1000, true)
	run("intern-eval-10k-string", 10000, false)
	run("intern-eval-10k-intern", 10000, true)

	var early, late float64
	withGates(true, func() {
		const n = 10000
		q := `select guide where exists X in guide.item : X = 7`
		eEarly := internEngine(newExistsDB(n, 0))
		eLate := internEngine(newExistsDB(n, n-1))
		early = nsOp(bench("exists-witness-first", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eEarly.Query(q); err != nil {
					panic(err)
				}
			}
		}))
		late = nsOp(bench("exists-witness-last", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eLate.Query(q); err != nil {
					panic(err)
				}
			}
		}))
	})
	report.ExistsEarlyExitRatio = late / early

	obs.SetEnabled(true)
	return nil
}
