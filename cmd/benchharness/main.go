// Command benchharness regenerates every experiment in EXPERIMENTS.md:
// the paper's figures and worked examples as pass/fail checks (F1-F7,
// Q1-Q5), the Section 7 extensions (X1-X5), and the quantitative series
// B1-B10 as formatted tables. It exits nonzero if any check fails.
//
// Usage:
//
//	benchharness [-quick]
//
// The tables characterize the paper's series; a speed claim is measured
// by the end-to-end benchmark in benchmark/ (BENCHMARK.json), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/change"
	"repro/internal/chorel"
	"repro/internal/doem"
	"repro/internal/encoding"
	"repro/internal/guidegen"
	"repro/internal/htmldiff"
	"repro/internal/lore"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/oemdiff"
	"repro/internal/qss"
	"repro/internal/timestamp"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

var quick = flag.Bool("quick", false, "smaller problem sizes")

var failures int

func main() {
	flag.Parse()
	fmt.Println("DOEM/Chorel reproduction — experiment harness")
	fmt.Println(strings.Repeat("=", 64))

	checkSection()
	extensionChecks()
	b1()
	b2()
	b3()
	b4()
	b5()
	b6()
	b7()
	b8()
	b9()
	b10()

	fmt.Println(strings.Repeat("=", 64))
	if failures > 0 {
		fmt.Printf("FAILED: %d check(s) did not reproduce\n", failures)
		os.Exit(1)
	}
	fmt.Println("all reproduction checks passed")
}

func check(id, what string, ok bool) {
	mark := "ok  "
	if !ok {
		mark = "FAIL"
		failures++
	}
	fmt.Printf("  [%s] %-4s %s\n", mark, id, what)
}

// checkSection reruns the paper's figures and worked examples.
func checkSection() {
	fmt.Println("\n-- Paper figures and worked examples --")

	// F2/F3/F4: the running example and its DOEM database.
	db, ids := guidegen.PaperGuide()
	check("F2", "Figure 2 guide: 2 restaurants, shared parking, cycle",
		len(db.OutLabeled(ids.Guide, "restaurant")) == 2 &&
			db.HasArc(ids.Parking, "nearby-eats", ids.Bangkok))
	d, err := doem.FromHistory(db, guidegen.PaperHistory(ids))
	if err != nil {
		check("F3", "Example 2.3 history applies", false)
		return
	}
	check("F3", "Example 2.3 history applies; 3 restaurants after",
		len(d.Current().OutLabeled(ids.Guide, "restaurant")) == 3)
	check("F4", "Figure 4 DOEM: 8 annotations, removed arc retained",
		d.NumAnnotations() == 8 && d.IsDead(oem.Arc{Parent: ids.Janta, Label: "parking", Child: ids.Parking}))
	check("F4b", "Section 3.2: D is feasible and O_0(D) = O", d.Feasible() && d.Original().Equal(db))

	eng := lorel.NewEngine()
	eng.Register("guide", d)
	run := func(q string) *lorel.Result {
		res, err := eng.Query(q)
		if err != nil {
			fmt.Printf("       query error: %v\n", err)
			return &lorel.Result{}
		}
		return res
	}

	// Q1-Q5.
	r := run(`select guide.restaurant where guide.restaurant.price < 20.5`)
	check("Q1", "Example 4.1 -> exactly Bangkok Cuisine",
		r.Len() == 1 && r.FirstColumnNodes()[0] == ids.Bangkok)
	r = run(`select guide.<add>restaurant`)
	check("Q2", "Example 4.2 -> exactly Hakata",
		r.Len() == 1 && r.FirstColumnNodes()[0] == ids.Hakata)
	r = run(`select guide.<add at T>restaurant where T < 4Jan97`)
	check("Q3", "Example 4.3 -> exactly Hakata", r.Len() == 1 && r.FirstColumnNodes()[0] == ids.Hakata)
	r = run(`select N, T, NV from guide.restaurant.price<upd at T to NV>, guide.restaurant.name N where T >= 1Jan97 and NV > 15`)
	q4ok := r.Len() == 1
	if q4ok {
		n := r.Values("name")
		t := r.Values("update-time")
		nv := r.Values("new-value")
		q4ok = len(n) == 1 && n[0].Equal(value.Str("Bangkok Cuisine")) &&
			t[0].Equal(value.Time(guidegen.T1)) && nv[0].Equal(value.Int(20))
	}
	check("Q4", "Example 4.4 -> {Bangkok Cuisine, 1Jan97, 20}", q4ok)
	r = run(`select N from guide.restaurant R, R.name N where R.<add at T>price = "moderate" and T >= 1Jan97`)
	check("Q5", "Example 4.5 -> empty on the paper history", r.Len() == 0)

	// F5: translation (Example 5.1) agrees with direct evaluation.
	cdb := chorel.New("guide", d)
	direct, err1 := cdb.Query(`select guide.<add>restaurant`)
	trans, err2 := cdb.QueryTranslated(`select guide.<add>restaurant`)
	agree := err1 == nil && err2 == nil && direct.Len() == trans.Len()
	if agree && direct.Len() == 1 {
		m := cdb.MapToDOEM(trans.FirstColumnNodes())
		agree = len(m) == 1 && m[0] == direct.FirstColumnNodes()[0]
	}
	check("F5", "Section 5: direct and translated strategies agree", agree)
	text, err := chorel.TranslateString(`select N from guide.restaurant R, R.name N where R.<add at T>price = "moderate" and T >= 1Jan97`)
	check("F5b", "Example 5.1 translation uses &price-history/&target/&val",
		err == nil && strings.Contains(text, "&price-history") &&
			strings.Contains(text, "&target") && strings.Contains(text, "&val"))

	// F6: Example 6.1 timeline.
	src, gids := wrapper.NewMutable(mustGuide()), ids
	_ = gids
	svc := qss.NewService(nil)
	err = svc.Subscribe(qss.Subscription{
		Name: "Restaurants", SourceName: "guide", Source: src,
		Polling: `select guide.restaurant`,
		Filter:  `select Restaurants.restaurant<cre at T> where T > t[-1]`,
	})
	n1, _ := svc.Poll("Restaurants", timestamp.MustParse("30Dec96"))
	n2, _ := svc.Poll("Restaurants", timestamp.MustParse("31Dec96"))
	src.Mutate(func(db *oem.Database) error {
		r := db.CreateNode(value.Complex())
		nm := db.CreateNode(value.Str("Hakata"))
		db.AddArc(db.Root(), "restaurant", r)
		return db.AddArc(r, "name", nm)
	})
	n3, _ := svc.Poll("Restaurants", timestamp.MustParse("1Jan97"))
	check("F6", "Example 6.1: notify {2}, {}, {Hakata}",
		err == nil && n1 != nil && n1.Result.Len() == 2 && n2 == nil && n3 != nil && n3.Result.Len() == 1)

	// F1: htmldiff markup.
	out, err := htmldiff.Markup(
		`<ul><li><b>Janta</b> price 10</li></ul>`,
		`<ul><li><b>Janta</b> price 20</li><li><b>Hakata</b></li></ul>`)
	check("F1", "Figure 1: htmldiff marks insertion and text update",
		err == nil && strings.Contains(out, "hd-ins") && strings.Contains(out, "hd-upd-old"))
}

func mustGuide() *oem.Database {
	db, _ := guidegen.PaperGuide()
	return db
}

// extensionChecks exercises the implemented Section 7 future-work items.
func extensionChecks() {
	fmt.Println("\n-- Section 7 extensions --")

	// X1: ECA triggers.
	db, ids := guidegen.PaperGuide()
	mgr := trigger.NewManager("guide", doem.New(db))
	fired := 0
	err := mgr.Add(trigger.Trigger{
		Name:   "watch",
		Query:  `select NV from guide.restaurant.price<upd at T to NV> where T > t[-1] and NV > 15`,
		Action: func(trigger.Firing) error { fired++; return nil },
	})
	if err == nil {
		err = mgr.Apply(guidegen.T1, change.Set{change.UpdNode{Node: ids.Price, Value: value.Int(20)}})
	}
	check("X1", "ECA trigger fires on qualifying price update", err == nil && fired == 1)

	// X2: the update language compiles to basic change operations.
	eng := lorel.NewEngine()
	eng.Register("guide", lorel.NewOEMGraph(mustGuide()))
	set, err := eng.Update(`update guide.restaurant.price := 25 where guide.restaurant.name = "Janta"`, nil)
	check("X2", "Lorel update statement compiles to one updNode", err == nil && len(set) == 1)

	// X3: history truncation (Section 6.1 space trade).
	fullDB, fids := guidegen.PaperGuide()
	d, err := doem.FromHistory(fullDB, guidegen.PaperHistory(fids))
	ok := err == nil
	if ok {
		td, terr := d.Truncate(guidegen.T2)
		ok = terr == nil && td.NumAnnotations() == 1 && td.Current().Equal(d.Current()) && td.Feasible()
	}
	check("X3", "history truncation keeps later annotations and the snapshot", ok)

	// X4: annotation index answers windowed creation queries.
	ix := lore.BuildAnnotationIndex(d)
	created := ix.CreatedIn(guidegen.T1, guidegen.T2)
	check("X4", "annotation index: one node created in (t1, t2]", len(created) == 1)

	// X5: aggregates.
	aeng := lorel.NewEngine()
	aeng.Register("guide", d)
	res, err := aeng.Query(`select count(guide.restaurant) as n`)
	ok = err == nil && res.Len() == 1
	if ok {
		v := res.Values("n")
		ok = len(v) == 1 && v[0].Equal(value.Int(3))
	}
	check("X5", "aggregate count(guide.restaurant) = 3", ok)
}

// b9 measures matching-diff quality versus the similarity threshold: the
// script cost for a known small evolution (lower is better; the identity
// differ's cost is the floor).
func b9() {
	fmt.Println("\n-- B9: matching-diff threshold ablation (script ops for a small evolution) --")
	ev := guidegen.NewEvolver(5, 200)
	old := ev.DB.Clone()
	ev.Step(12)
	fresh := reID(ev.DB)
	floorSet, err := oemdiff.DiffIdentity(old, ev.DB)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  identity floor: %d ops\n", oemdiff.Measure(floorSet).Total())
	fmt.Printf("  %10s %10s\n", "threshold", "ops")
	for _, th := range []float64{0.3, 0.5, 0.7, 0.9} {
		set, err := oemdiff.Diff(old, fresh, &oemdiff.Options{Threshold: th})
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %10.1f %10d\n", th, oemdiff.Measure(set).Total())
	}
}

// b10 compares WAL-backed persistence (an append-only log of change sets)
// with full-snapshot rewrites as a history grows: the per-set persistence
// cost, the cost of loading a store (checkpoint + log replay), and the cost
// of a bare crash-recovery scan over the log.
func b10() {
	fmt.Println("\n-- B10: WAL vs snapshot persistence cost vs history length --")
	fmt.Printf("  %8s %14s %14s %12s %12s\n", "steps", "wal-append/op", "snapshot/op", "load", "recovery")
	opt := &wal.Options{Sync: wal.SyncNever}
	for _, steps := range []int{10, 50, scale(200)} {
		initial, h := guidegen.GenerateHistory(2, 100, steps, 8)
		if len(h) == 0 {
			continue
		}

		perOp := func(s *lore.Store) time.Duration {
			if err := s.PutDOEM("guide", doem.New(initial)); err != nil {
				panic(err)
			}
			start := time.Now()
			for _, step := range h {
				if err := s.ApplySet("guide", step.At, step.Ops); err != nil {
					panic(err)
				}
			}
			return time.Since(start) / time.Duration(len(h))
		}

		walRoot, err := os.MkdirTemp("", "b10wal")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(walRoot)
		ws, err := lore.OpenWAL(walRoot, opt)
		if err != nil {
			panic(err)
		}
		walPer := perOp(ws)
		ws.Close()

		snapRoot, err := os.MkdirTemp("", "b10snap")
		if err != nil {
			panic(err)
		}
		defer os.RemoveAll(snapRoot)
		ss, err := lore.Open(snapRoot)
		if err != nil {
			panic(err)
		}
		snapPer := perOp(ss)

		load := measure(func() {
			s, err := lore.OpenWAL(walRoot, opt)
			if err != nil {
				panic(err)
			}
			s.Close()
		})
		logDir := filepath.Join(walRoot, "guide.doemwal")
		recovery := measure(func() {
			l, err := wal.Open(logDir, opt)
			if err != nil {
				panic(err)
			}
			l.Close()
		})
		fmt.Printf("  %8d %14s %14s %12s %12s\n", len(h), walPer, snapPer, load, recovery)
	}
}

// --- quantitative series ---

func scale(n int) int {
	if *quick {
		return n / 5
	}
	return n
}

// measure runs fn repeatedly for at least 200ms and returns the per-op time.
func measure(fn func()) time.Duration {
	fn() // warm up
	var iters int
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		fn()
		iters++
	}
	return time.Since(start) / time.Duration(iters)
}

func b1() {
	fmt.Println("\n-- B1: DOEM construction vs. history length (100 restaurants, 10 ops/step) --")
	fmt.Printf("  %8s %14s %14s\n", "steps", "build time", "per op")
	for _, steps := range []int{10, 50, scale(200)} {
		initial, h := guidegen.GenerateHistory(1, 100, steps, 10)
		ops := 0
		for _, s := range h {
			ops += len(s.Ops)
		}
		dt := measure(func() {
			if _, err := doem.FromHistory(initial, h); err != nil {
				panic(err)
			}
		})
		fmt.Printf("  %8d %14s %14s\n", steps, dt, dt/time.Duration(max(ops, 1)))
	}
}

func b2() {
	fmt.Println("\n-- B2: SnapshotAt(t) cost (200 restaurants, 100 steps) --")
	initial, h := guidegen.GenerateHistory(1, 200, scale(100), 10)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		panic(err)
	}
	fmt.Printf("  %10s %14s\n", "t", "time")
	for _, tc := range []struct {
		name string
		t    timestamp.Time
	}{
		{"original", timestamp.NegInf},
		{"mid", timestamp.MustParse("1Feb97")},
		{"current", timestamp.PosInf},
	} {
		dt := measure(func() { d.SnapshotAt(tc.t) })
		fmt.Printf("  %10s %14s\n", tc.name, dt)
	}
}

func b3() {
	fmt.Println("\n-- B3: Chorel strategies — direct on DOEM vs. translated over encoding --")
	initial, h := guidegen.GenerateHistory(1, scale(200), 50, 10)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		panic(err)
	}
	eng := lorel.NewEngine()
	eng.Register("guide", d)
	cdb := chorel.New("guide", d)
	encStart := time.Now()
	cdb.Encoding()
	encTime := time.Since(encStart)

	fmt.Printf("  one-time encoding: %s\n", encTime)
	fmt.Printf("  %-12s %12s %12s %8s\n", "query", "direct", "translated", "ratio")
	for _, q := range []struct{ name, text string }{
		{"plain-scan", `select guide.restaurant.name`},
		{"add-scan", `select guide.<add at T>restaurant where T > 1Jan97`},
		{"upd-join", `select N, NV from guide.restaurant R, R.name N, R.price<upd to NV>`},
	} {
		direct := measure(func() {
			if _, err := eng.Query(q.text); err != nil {
				panic(err)
			}
		})
		translated := measure(func() {
			if _, err := cdb.QueryTranslated(q.text); err != nil {
				panic(err)
			}
		})
		fmt.Printf("  %-12s %12s %12s %7.2fx\n", q.name, direct, translated,
			float64(translated)/float64(direct))
	}
}

func b4() {
	fmt.Println("\n-- B4: annotation index ablation (Section 7 future work) --")
	initial, h := guidegen.GenerateHistory(1, scale(500), 100, 10)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		panic(err)
	}
	eng := lorel.NewEngine()
	eng.Register("guide", d)
	ix := lore.BuildAnnotationIndex(d)
	from, to := timestamp.MustParse("1Feb97"), timestamp.MustParse("2Feb97")

	scan := measure(func() {
		if _, err := eng.Query(`select guide.restaurant<cre at T> where T > 1Feb97 and T <= 2Feb97`); err != nil {
			panic(err)
		}
	})
	lookup := measure(func() { ix.CreatedIn(from, to) })
	build := measure(func() { lore.BuildAnnotationIndex(d) })
	fmt.Printf("  query scan:    %12s\n", scan)
	fmt.Printf("  index lookup:  %12s  (%.0fx faster)\n", lookup, float64(scan)/float64(lookup))
	fmt.Printf("  index build:   %12s  (amortized over repeated windows)\n", build)
}

func b5() {
	fmt.Println("\n-- B5: OEMdiff — identity vs. matching mode --")
	fmt.Printf("  %8s %14s %14s %8s\n", "size", "identity", "matching", "ratio")
	for _, n := range []int{100, 500, scale(2000)} {
		ev := guidegen.NewEvolver(1, n)
		old := ev.DB.Clone()
		ev.Step(n / 10)
		fresh := reID(ev.DB)
		ident := measure(func() {
			if _, err := oemdiff.DiffIdentity(old, ev.DB); err != nil {
				panic(err)
			}
		})
		matching := measure(func() {
			if _, err := oemdiff.Diff(old, fresh, nil); err != nil {
				panic(err)
			}
		})
		fmt.Printf("  %8d %14s %14s %7.1fx\n", n, ident, matching, float64(matching)/float64(ident))
	}
}

func b6() {
	fmt.Println("\n-- B6: QSS polling cycle latency --")
	fmt.Printf("  %12s %14s\n", "restaurants", "cycle time")
	for _, n := range []int{50, 200, scale(1000)} {
		ev := guidegen.NewEvolver(1, n)
		src := wrapper.NewMutable(ev.DB)
		svc := qss.NewService(nil)
		if err := svc.Subscribe(qss.Subscription{
			Name: "R", SourceName: "guide", Source: src,
			Polling: `select guide.restaurant`,
			Filter:  `select R.restaurant<cre at T> where T > t[-1]`,
		}); err != nil {
			panic(err)
		}
		t := timestamp.MustParse("1Jan97")
		if _, err := svc.Poll("R", t); err != nil {
			panic(err)
		}
		dt := measure(func() {
			src.Mutate(func(*oem.Database) error { ev.Step(5); return nil })
			t = t.Add(3600e9)
			if _, err := svc.Poll("R", t); err != nil {
				panic(err)
			}
		})
		fmt.Printf("  %12d %14s\n", n, dt)
	}
}

func b7() {
	fmt.Println("\n-- B7: OEM-encoding space overhead (Section 5.1) --")
	fmt.Printf("  %8s %10s %10s %12s %12s\n", "steps", "DOEM n/a", "enc n/a", "node-factor", "arc-factor")
	for _, steps := range []int{20, scale(100)} {
		initial, h := guidegen.GenerateHistory(1, 200, steps, 10)
		d, err := doem.FromHistory(initial, h)
		if err != nil {
			panic(err)
		}
		enc := encoding.Encode(d)
		s := encoding.Measure(d, enc)
		fmt.Printf("  %8d %5d/%-5d %5d/%-5d %11.2fx %11.2fx\n",
			steps, s.DOEMNodes, s.DOEMArcs, s.EncNodes, s.EncArcs, s.NodeFactor(), s.ArcFactor())
	}
}

func b8() {
	fmt.Println("\n-- B8: htmldiff end-to-end --")
	fmt.Printf("  %8s %14s\n", "entries", "markup time")
	for _, n := range []int{50, 200, scale(1000)} {
		oldPage := makePage(n, "")
		newPage := makePage(n, " Now with patio seating!")
		dt := measure(func() {
			if _, err := htmldiff.Markup(oldPage, newPage); err != nil {
				panic(err)
			}
		})
		fmt.Printf("  %8d %14s\n", n, dt)
	}
}

func makePage(entries int, bump string) string {
	var sb strings.Builder
	sb.WriteString("<html><body><h1>Guide</h1><ul>")
	for i := 0; i < entries; i++ {
		note := ""
		if i == entries/2 {
			note = bump
		}
		fmt.Fprintf(&sb, "<li><b>Restaurant %d</b> price %d.%s</li>", i, 10+i%30, note)
	}
	sb.WriteString("</ul></body></html>")
	return sb.String()
}

// reID re-copies a database with fresh node ids, preserving all labels —
// the shape of a source without object identity.
func reID(db *oem.Database) *oem.Database {
	out, err := wrapper.Unstable{Inner: wrapper.Static{DB: db}}.Poll()
	if err != nil {
		panic(err)
	}
	return out
}
