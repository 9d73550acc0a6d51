package segment

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wal"
)

// windowedStore builds a guide of 16 restaurants, each with a price, and
// a history of four steps per sealed segment, each updating four prices
// and adding one comment, sealed into the given number of segments, then
// four more steps in the active segment. It returns the store reopened
// (so no index is loaded), the same history as a monolithic database, and
// an instant after the last seal but before the active steps.
func windowedStore(t *testing.T, segments int) (*Store, *doem.Database, timestamp.Time) {
	t.Helper()
	guide := oem.New()
	var restaurants, prices []oem.NodeID
	for i := 0; i < 16; i++ {
		r := guide.CreateNode(value.Complex())
		p := guide.CreateNode(value.Int(int64(10 + i)))
		if err := guide.AddArc(guide.Root(), "restaurant", r); err != nil {
			t.Fatal(err)
		}
		if err := guide.AddArc(r, "price", p); err != nil {
			t.Fatal(err)
		}
		restaurants, prices = append(restaurants, r), append(prices, p)
	}
	mono := doem.New(guide.Clone())
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(dir, doem.New(guide), &wal.Options{Sync: wal.SyncNever}, &Policy{MaxHot: 2})
	if err != nil {
		t.Fatal(err)
	}
	at := timestamp.MustParse("1Jan97")
	next := st.MaxID() + 1
	step := func(i int) {
		at = at.Add(24 * time.Hour)
		set := change.Set{
			change.CreNode{Node: next, Value: value.Str(fmt.Sprintf("comment %d", i))},
			change.AddArc{Parent: restaurants[i%len(restaurants)], Label: "comment", Child: next},
		}
		next++
		for k := 0; k < 4; k++ {
			set = append(set, change.UpdNode{Node: prices[(4*i+k)%len(prices)], Value: value.Int(int64(20 + i + k))})
		}
		if err := mono.Apply(at, set); err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(at, set); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	for s := 0; s < segments; s++ {
		for k := 0; k < 4; k++ {
			step(i)
			i++
		}
		if err := st.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	after := st.LastSeal().Add(time.Hour)
	for k := 0; k < 4; k++ {
		step(i)
		i++
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir, nil, &Policy{MaxHot: 2}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if st.Segments() != segments {
		t.Fatalf("%d sealed segments, want %d", st.Segments(), segments)
	}
	return st, mono, after
}

// TestWindowedReadCostIgnoresSealedSegments is the scaling gate of
// annotation windows: a query whose time bound lies after the last seal
// loads no sealed index, whether the store holds 2 sealed segments or 16,
// and allocates about the same at both sizes. Its answers are the
// monolithic database's.
func TestWindowedReadCostIgnoresSealedSegments(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	type cost struct {
		loads       int64
		allocs      float64
		bytesPerRun uint64
	}
	measure := func(segments int) map[string]cost {
		st, mono, after := windowedStore(t, segments)
		queries := []string{
			fmt.Sprintf(`select T from guide.restaurant.price<upd at T> where T > %q`, after),
			fmt.Sprintf(`select T, NV from guide.restaurant.price<upd at T to NV> where %q < T`, after),
			fmt.Sprintf(`select T from guide.restaurant.<add at T>comment where T >= %q`, after),
		}
		eng, raw := lorel.NewEngine(), lorel.NewEngine()
		eng.Register("guide", st.Graph())
		raw.Register("guide", mono)
		out := make(map[string]cost)
		for _, q := range queries {
			loads := mIdxLoads.Value() + mIdxRebuilds.Value()
			got, err := eng.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := raw.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != want.String() || len(want.Rows) == 0 {
				t.Fatalf("%d segments: %s:\nsegmented:\n%s\nmonolithic:\n%s", segments, q, got, want)
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(runs, func() {
				if _, err := eng.Query(q); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&after)
			out[q[:40]] = cost{
				loads:       mIdxLoads.Value() + mIdxRebuilds.Value() - loads,
				allocs:      allocs,
				bytesPerRun: (after.TotalAlloc - before.TotalAlloc) / (runs + 1),
			}
		}
		return out
	}
	begin := time.Now()
	small, large := measure(2), measure(16)
	for q, s := range small {
		l := large[q]
		t.Logf("%s…: 2 segments %d loads, %.0f allocs, %d B; 16 segments %d loads, %.0f allocs, %d B",
			q, s.loads, s.allocs, s.bytesPerRun, l.loads, l.allocs, l.bytesPerRun)
		if s.loads != 0 || l.loads != 0 {
			t.Errorf("%s…: sealed index loads %d at 2 segments, %d at 16; want 0", q, s.loads, l.loads)
		}
		if l.allocs >= 2*s.allocs || l.bytesPerRun >= 2*s.bytesPerRun {
			t.Errorf("%s…: allocations grow with sealed history: %.0f allocs, %d B at 2 segments; %.0f allocs, %d B at 16",
				q, s.allocs, s.bytesPerRun, l.allocs, l.bytesPerRun)
		}
	}
	t.Logf("gate ran in %s", time.Since(begin))
}

// valueStore builds a guide of 16 prices and a counter. The first of the
// given number of sealed segments updates every price over four steps;
// every later step, sealed or active, updates only the counter. It
// returns the store reopened (so no index is loaded), the same history as
// a monolithic database, and the time of the first segment's second step.
func valueStore(t *testing.T, segments int) (*Store, *doem.Database, timestamp.Time) {
	t.Helper()
	guide := oem.New()
	var prices []oem.NodeID
	for i := 0; i < 16; i++ {
		p := guide.CreateNode(value.Int(int64(10 + i)))
		if err := guide.AddArc(guide.Root(), "price", p); err != nil {
			t.Fatal(err)
		}
		prices = append(prices, p)
	}
	counter := guide.CreateNode(value.Int(0))
	if err := guide.AddArc(guide.Root(), "counter", counter); err != nil {
		t.Fatal(err)
	}
	mono := doem.New(guide.Clone())
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(dir, doem.New(guide), &wal.Options{Sync: wal.SyncNever}, &Policy{MaxHot: 2})
	if err != nil {
		t.Fatal(err)
	}
	at := timestamp.MustParse("1Jan97")
	var second timestamp.Time
	for i := 0; i < 4*segments+4; i++ {
		at = at.Add(24 * time.Hour)
		set := change.Set{change.UpdNode{Node: counter, Value: value.Int(int64(i + 1))}}
		if i < 4 {
			set = nil
			for k := 0; k < 4; k++ {
				set = append(set, change.UpdNode{Node: prices[4*i+k], Value: value.Int(int64(30 + 4*i + k))})
			}
		}
		if i == 1 {
			second = at
		}
		if err := mono.Apply(at, set); err != nil {
			t.Fatal(err)
		}
		if err := st.Apply(at, set); err != nil {
			t.Fatal(err)
		}
		if i%4 == 3 && i < 4*segments {
			if err := st.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = Open(dir, nil, &Policy{MaxHot: 2}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if st.Segments() != segments {
		t.Fatalf("%d sealed segments, want %d", st.Segments(), segments)
	}
	return st, mono, second
}

// TestValueAtLoadsCoveringIndexOnly is the scaling gate of <at T> value
// reads: reading every price at an instant inside the first sealed
// segment loads at most the covering index, whether the store holds 2
// sealed segments or 16; the value a later segment holds is in its
// handle. The prices updated before the instant are not updated again,
// so a read that scanned the later segments' indexes for their next upd
// would load all of them. Its answers are the monolithic database's.
func TestValueAtLoadsCoveringIndexOnly(t *testing.T) {
	defer obs.SetEnabled(obs.SetEnabled(true))
	for _, segments := range []int{2, 16} {
		st, mono, at := valueStore(t, segments)
		q := fmt.Sprintf(`select guide.price<at %q>`, at)
		eng, raw := lorel.NewEngine(), lorel.NewEngine()
		eng.Register("guide", st.Graph())
		raw.Register("guide", mono)
		loads := mIdxLoads.Value() + mIdxRebuilds.Value()
		got, err := eng.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		answer := got.String()
		loads = mIdxLoads.Value() + mIdxRebuilds.Value() - loads
		want, err := raw.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if answer != want.String() || len(want.Rows) != 16 {
			t.Fatalf("%d segments: %s:\nsegmented:\n%s\nmonolithic:\n%s", segments, q, got, want)
		}
		t.Logf("%d segments: %d sealed index loads", segments, loads)
		if loads > 1 {
			t.Errorf("%d segments: %d sealed index loads, want at most 1", segments, loads)
		}
	}
}
