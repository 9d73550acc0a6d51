// Benchmarks regenerating the reproduction's quantitative series (B1-B9
// in EXPERIMENTS.md; B10 is BenchmarkPersistence in internal/lore). The
// paper itself publishes no quantitative tables; these benches
// characterize the design choices it discusses: DOEM maintenance cost,
// snapshot materialization, direct versus translated Chorel execution,
// snapshot differencing and its matching quality, QSS polling cycles,
// encoding overhead, and htmldiff.
//
// Run with: go test -bench=. -benchmem -run '^$' .
package repro_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/change"
	"repro/internal/chorel"
	"repro/internal/doem"
	"repro/internal/encoding"
	"repro/internal/guidegen"
	"repro/internal/htmldiff"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/oemdiff"
	"repro/internal/qss"
	"repro/internal/timestamp"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wrapper"
)

// --- shared fixtures ---

func generate(b *testing.B, restaurants, steps, opsPerStep int) (*oem.Database, *doem.Database) {
	b.Helper()
	initial, h := guidegen.GenerateHistory(1, restaurants, steps, opsPerStep)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		b.Fatal(err)
	}
	return initial, d
}

// --- B1: DOEM construction throughput vs. history length ---

func BenchmarkDOEMConstruct(b *testing.B) {
	for _, steps := range []int{10, 50, 200} {
		initial, h := guidegen.GenerateHistory(1, 100, steps, 10)
		ops := 0
		for _, s := range h {
			ops += len(s.Ops)
		}
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := doem.FromHistory(initial, h); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ops), "ns/change")
		})
	}
}

// --- B2: snapshot materialization cost ---

func BenchmarkSnapshotAt(b *testing.B) {
	_, d := generate(b, 200, 100, 10)
	early := timestamp.MustParse("2Jan97")
	late := timestamp.MustParse("1Jan99")
	for name, t := range map[string]timestamp.Time{
		"original": timestamp.NegInf,
		"early":    early,
		"late":     late,
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d.SnapshotAt(t)
			}
		})
	}
}

// --- B3: Chorel execution strategies (Section 5) ---

// strategyQueries are the query classes compared across strategies.
var strategyQueries = []struct {
	name string
	text string
}{
	{"plain-scan", `select guide.restaurant.name`},
	{"add-scan", `select guide.<add at T>restaurant where T > 1Jan97`},
	{"upd-join", `select N, NV from guide.restaurant R, R.name N, R.price<upd to NV>`},
}

func BenchmarkChorelDirect(b *testing.B) {
	_, d := generate(b, 200, 50, 10)
	eng := lorel.NewEngine()
	eng.Register("guide", d)
	for _, q := range strategyQueries {
		parsed, err := lorel.Parse(q.text)
		if err != nil {
			b.Fatal(err)
		}
		if err := lorel.Canonicalize(parsed); err != nil {
			b.Fatal(err)
		}
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Eval(parsed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkChorelTranslated(b *testing.B) {
	_, d := generate(b, 200, 50, 10)
	cdb := chorel.New("guide", d)
	cdb.Encoding() // build once, outside the timed loop
	for _, q := range strategyQueries {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := cdb.QueryTranslated(q.text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChorelEncodeOnce measures the one-time encoding cost the
// translated strategy pays per database version.
func BenchmarkChorelEncodeOnce(b *testing.B) {
	_, d := generate(b, 200, 50, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		encoding.Encode(d)
	}
}

// --- B5: snapshot differencing ---

func benchSnapshots(b *testing.B, n int) (*oem.Database, *oem.Database) {
	b.Helper()
	ev := guidegen.NewEvolver(1, n)
	old := ev.DB.Clone()
	ev.Step(n / 10)
	return old, ev.DB
}

func BenchmarkOEMDiffIdentity(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		old, new := benchSnapshots(b, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oemdiff.DiffIdentity(old, new); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkOEMDiffMatching(b *testing.B) {
	for _, n := range []int{100, 500, 2000} {
		old, newDB := benchSnapshots(b, n)
		// Re-id the new snapshot (labels preserved) so matching is
		// actually exercised.
		fresh, err := wrapper.Unstable{Inner: wrapper.Static{DB: newDB}}.Poll()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := oemdiff.Diff(old, fresh, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B9: matching quality vs. similarity threshold ---

// BenchmarkOEMDiffThreshold reports the script size (script-ops) the
// matching differ produces for a known 12-operation evolution of a
// 200-restaurant guide, at each similarity threshold, beside the identity
// differ's script (the floor: it knows the true correspondence).
// TestMatchingQualityMatchesIdentityFloor in internal/oemdiff guards the
// default threshold.
func BenchmarkOEMDiffThreshold(b *testing.B) {
	ev := guidegen.NewEvolver(5, 200)
	old := ev.DB.Clone()
	ev.Step(12)
	fresh, err := wrapper.Unstable{Inner: wrapper.Static{DB: ev.DB}}.Poll()
	if err != nil {
		b.Fatal(err)
	}
	scriptOps := func(diff func() (change.Set, error)) func(*testing.B) {
		return func(b *testing.B) {
			var set change.Set
			for i := 0; i < b.N; i++ {
				var err error
				if set, err = diff(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(oemdiff.Measure(set).Total()), "script-ops")
		}
	}
	b.Run("identity", scriptOps(func() (change.Set, error) { return oemdiff.DiffIdentity(old, ev.DB) }))
	for _, th := range []float64{0.3, 0.5, 0.7, 0.9} {
		opt := &oemdiff.Options{Threshold: th}
		b.Run(fmt.Sprintf("threshold=%.1f", th), scriptOps(func() (change.Set, error) { return oemdiff.Diff(old, fresh, opt) }))
	}
}

// --- B6: QSS polling cycle ---

func BenchmarkQSSCycle(b *testing.B) {
	for _, n := range []int{50, 200, 1000} {
		b.Run(fmt.Sprintf("restaurants=%d", n), func(b *testing.B) {
			ev := guidegen.NewEvolver(1, n)
			src := wrapper.NewMutable(ev.DB)
			svc := qss.NewService(nil)
			if err := svc.Subscribe(qss.Subscription{
				Name: "R", SourceName: "guide", Source: src,
				Polling: `select guide.restaurant`,
				Filter:  `select R.restaurant<cre at T> where T > t[-1]`,
			}); err != nil {
				b.Fatal(err)
			}
			t := timestamp.MustParse("1Jan97")
			if _, err := svc.Poll("R", t); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := src.Mutate(func(*oem.Database) error { ev.Step(5); return nil }); err != nil {
					b.Fatal(err)
				}
				t = t.Add(3600e9)
				b.StartTimer()
				if _, err := svc.Poll("R", t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B7: encoding overhead ---

func BenchmarkEncodingOverhead(b *testing.B) {
	for _, steps := range []int{20, 100} {
		_, d := generate(b, 200, steps, 10)
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			b.ReportAllocs()
			var stats encoding.Stats
			for i := 0; i < b.N; i++ {
				enc := encoding.Encode(d)
				stats = encoding.Measure(d, enc)
			}
			b.ReportMetric(float64(stats.DOEMNodes), "doem-nodes")
			b.ReportMetric(float64(stats.DOEMArcs), "doem-arcs")
			b.ReportMetric(float64(stats.EncNodes), "enc-nodes")
			b.ReportMetric(float64(stats.EncArcs), "enc-arcs")
			b.ReportMetric(stats.NodeFactor(), "node-factor")
			b.ReportMetric(stats.ArcFactor(), "arc-factor")
		})
	}
}

// --- B8: htmldiff ---

func makePage(entries int, bump string) string {
	var sb strings.Builder
	sb.WriteString("<html><body><h1>Guide</h1><ul>")
	for i := 0; i < entries; i++ {
		price := 10 + i%30
		note := ""
		if i == entries/2 {
			note = bump
		}
		fmt.Fprintf(&sb, "<li><b>Restaurant %d</b> price %d.%s</li>", i, price, note)
	}
	sb.WriteString("</ul></body></html>")
	return sb.String()
}

func BenchmarkHTMLDiff(b *testing.B) {
	for _, n := range []int{50, 200, 1000} {
		oldPage := makePage(n, "")
		newPage := makePage(n, " Now with patio seating!")
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := htmldiff.Markup(oldPage, newPage); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- the paper's worked-example queries as micro-benches (Q1-Q5) ---

// BenchmarkPaperQueries runs each worked example with metrics collection
// off (what every untraced production query pays) and on. The gap between
// the two is the cost of collection; see docs/observability.md, "Overhead".
func BenchmarkPaperQueries(b *testing.B) {
	db, ids := guidegen.PaperGuide()
	d, err := doem.FromHistory(db, guidegen.PaperHistory(ids))
	if err != nil {
		b.Fatal(err)
	}
	eng := lorel.NewEngine()
	eng.Register("guide", d)
	queries := []struct {
		name, text string
		q          *lorel.Query
	}{
		{name: "ex4.1", text: `select guide.restaurant where guide.restaurant.price < 20.5`},
		{name: "ex4.2", text: `select guide.<add>restaurant`},
		{name: "ex4.3", text: `select guide.<add at T>restaurant where T < 4Jan97`},
		{name: "ex4.4", text: `select N, T, NV from guide.restaurant.price<upd at T to NV>, guide.restaurant.name N where T >= 1Jan97 and NV > 15`},
		{name: "ex4.5", text: `select N from guide.restaurant R, R.name N where R.<add at T>price = "moderate" and T >= 1Jan97`},
	}
	for i := range queries {
		q, err := lorel.Parse(queries[i].text)
		if err != nil {
			b.Fatal(err)
		}
		if err := lorel.Canonicalize(q); err != nil {
			b.Fatal(err)
		}
		queries[i].q = q
	}
	for _, collect := range []bool{false, true} {
		mode := "obs=off"
		if collect {
			mode = "obs=on"
		}
		b.Run(mode, func(b *testing.B) {
			defer obs.SetEnabled(obs.SetEnabled(collect))
			for _, pq := range queries {
				b.Run(pq.name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := eng.Eval(pq.q); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// --- extensions: ECA triggers and the update language ---

func BenchmarkTriggerFiring(b *testing.B) {
	initial, _ := guidegen.GenerateHistory(1, 100, 1, 1)
	d := doem.New(initial)
	mgr := trigger.NewManager("guide", d)
	fired := 0
	if err := mgr.Add(trigger.Trigger{
		Name:   "watch",
		Query:  `select NV from guide.restaurant.price<upd at T to NV> where T > t[-1]`,
		Action: func(trigger.Firing) error { fired++; return nil },
	}); err != nil {
		b.Fatal(err)
	}
	// Collect the updatable price nodes.
	var prices []oem.NodeID
	cur := d.Current()
	for _, ra := range cur.OutLabeled(cur.Root(), "restaurant") {
		for _, pa := range cur.OutLabeled(ra.Child, "price") {
			prices = append(prices, pa.Child)
		}
	}
	if len(prices) == 0 {
		b.Fatal("no price nodes")
	}
	t := timestamp.MustParse("1Jan97")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t = t.Add(3600e9)
		set := change.Set{change.UpdNode{Node: prices[i%len(prices)], Value: value.Int(int64(i))}}
		if err := mgr.Apply(t, set); err != nil {
			b.Fatal(err)
		}
	}
	if fired == 0 {
		b.Fatal("trigger never fired")
	}
}

func BenchmarkUpdateCompile(b *testing.B) {
	initial, _ := guidegen.GenerateHistory(1, 500, 1, 1)
	eng := lorel.NewEngine()
	eng.Register("guide", lorel.NewOEMGraph(initial))
	stmt, err := lorel.ParseUpdate(`update guide.restaurant.price := 25 where guide.restaurant.cuisine = "Thai"`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := eng.CompileUpdate(stmt, nil); err != nil {
			b.Fatal(err)
		}
	}
}
