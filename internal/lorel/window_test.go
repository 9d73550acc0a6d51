package lorel

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/timestamp"
)

// windowProbe is a DOEM database that counts the annotation reads a
// window narrowed.
type windowProbe struct {
	*doem.Database
	narrowed int
}

func (p *windowProbe) count(from, to timestamp.Time) {
	if !from.Equal(timestamp.NegInf) || !to.Equal(timestamp.PosInf) {
		p.narrowed++
	}
}

func (p *windowProbe) UpdTriplesIn(n oem.NodeID, from, to timestamp.Time) []doem.UpdInfo {
	p.count(from, to)
	return p.Database.UpdTriplesIn(n, from, to)
}

func (p *windowProbe) ArcAnnotsIn(a oem.Arc, from, to timestamp.Time) []doem.ArcAnnot {
	p.count(from, to)
	return p.Database.ArcAnnotsIn(a, from, to)
}

// TestWindowedWalkerMatchesOracle holds the windowed walker to the
// nested-loop oracle, which reads every annotation, on generated
// histories with planning on and off: the same rows in the same order. A
// query whose time bounds give a window must read through it; bounds
// under or or not, against a non-time constant, or on a variable bound
// twice must not.
func TestWindowedWalkerMatchesOracle(t *testing.T) {
	type template struct {
		src      func(at func() string, rng *rand.Rand) string
		windowed bool
	}
	templates := []template{
		{func(at func() string, _ *rand.Rand) string {
			return fmt.Sprintf(`select T, OV, NV from guide.restaurant.price<upd at T from OV to NV> where T > %s`, at())
		}, true},
		{func(at func() string, _ *rand.Rand) string {
			return fmt.Sprintf(`select T, NV from guide.restaurant.price<upd at T to NV> where T >= %s and T <= %s`, at(), at())
		}, true},
		{func(at func() string, _ *rand.Rand) string {
			return fmt.Sprintf(`select N, T, NV from guide.restaurant R, R.name N, R.price<upd at T to NV> where %s >= T`, at())
		}, true},
		{func(at func() string, _ *rand.Rand) string {
			return fmt.Sprintf(`select T, OV from guide.restaurant.price<upd at T from OV> where T = %s`, at())
		}, true},
		{func(at func() string, _ *rand.Rand) string {
			return fmt.Sprintf(`select N, T from guide.<add at T>restaurant R, R.name N where T < %s`, at())
		}, true},
		{func(_ func() string, rng *rand.Rand) string {
			return fmt.Sprintf(`select T from guide.<rem at T>restaurant where T > t[-%d]`, 1+rng.Intn(4))
		}, true},
		{func(at func() string, _ *rand.Rand) string {
			return fmt.Sprintf(`select N from guide.restaurant R, R.name N where R.price<upd at T> > 0 and T > %s`, at())
		}, true},
		{func(at func() string, _ *rand.Rand) string {
			return fmt.Sprintf(`select T from guide.<add at T>restaurant where T < %s or T > %s`, at(), at())
		}, false},
		{func(at func() string, _ *rand.Rand) string {
			return fmt.Sprintf(`select T from guide.<add at T>restaurant where not T < %s`, at())
		}, false},
		{func(_ func() string, _ *rand.Rand) string {
			return `select T from guide.restaurant.price<upd at T> where T > "soon"`
		}, false},
		{func(_ func() string, _ *rand.Rand) string {
			return `select T from guide.restaurant.price<upd at T> where T > 5`
		}, false},
		{func(at func() string, _ *rand.Rand) string {
			return fmt.Sprintf(`select T from guide.<add at T>restaurant R, R.<add at T>name where T > %s`, at())
		}, false},
	}
	compared, nonEmpty := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		initial, h := guidegen.GenerateHistory(seed, 12, 25, 6)
		d, err := doem.FromHistory(initial, h)
		if err != nil {
			t.Fatal(err)
		}
		steps := d.Steps()
		probe := &windowProbe{Database: d}
		var es [2]*Engine
		for i := range es {
			es[i] = NewEngine()
			es[i].SetPlanning(i == 1)
			es[i].Register("guide", probe)
			es[i].SetPollTimes(steps[:len(steps)/2+1])
		}
		rng := rand.New(rand.NewSource(seed))
		at := func() string { // a step instant, or one second either side of it
			return fmt.Sprintf("%q", steps[rng.Intn(len(steps))].Add(time.Duration(rng.Intn(3)-1)*time.Second).String())
		}
		for i := 0; i < 12*len(templates); i++ {
			tp := templates[i%len(templates)]
			src := tp.src(at, rng)
			q, err := Parse(src)
			if err == nil {
				err = Canonicalize(q)
			}
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			want := renderOutcome(oracleQuery(es[0], q))
			for pi, e := range es {
				before := probe.narrowed
				if got := renderOutcome(e.Query(src)); got != want {
					t.Fatalf("seed %d planning=%v %s:\nexecutor:\n%s\noracle:\n%s", seed, pi == 1, src, got, want)
				}
				if narrowed := probe.narrowed > before; narrowed != tp.windowed {
					t.Fatalf("seed %d planning=%v %s: read through a window %v, want %v", seed, pi == 1, src, narrowed, tp.windowed)
				}
			}
			compared++
			if !strings.HasPrefix(want, "0 row(s)") {
				nonEmpty++
			}
		}
	}
	t.Logf("%d windowed queries compared, %d with rows", compared, nonEmpty)
	if nonEmpty < compared/2 {
		t.Errorf("only %d of %d queries returned rows", nonEmpty, compared)
	}
}

// TestExplainPrintsWindows: EXPLAIN lists each annotation step's window
// as resolved for an evaluation started now, and none for bounds joined
// by or.
func TestExplainPrintsWindows(t *testing.T) {
	_, _, d := paperEngine(t)
	e := NewEngine()
	e.Register("guide", d)
	e.SetPollTimes([]timestamp.Time{timestamp.MustParse("1Jan97"), timestamp.MustParse("5Jan97")})
	for src, want := range map[string]string{
		`select T from guide.restaurant.price<upd at T> where T > "1Jan97"`:                   `window T in ("1Jan97", +inf)`,
		`select T from guide.<add at T>restaurant where "2Jan97" <= T and T < t[0]`:           `window T in ["2Jan97", "5Jan97")`,
		`select T from guide.<rem at T>restaurant where T <= 2Jan97 and T >= t[-1]`:           `window T in ["1Jan97", "2Jan97"]`,
		`select T, NV from guide.restaurant.price<upd at T to NV> where T = "3Jan97 10:00"`:   `window T in ["3Jan97 10:00", "3Jan97 10:00"]`,
		`select T from guide.restaurant.price<upd at T> where T > "1Jan97" and T >= "1Jan97"`: `window T in ("1Jan97", +inf)`,
		`select T from guide.restaurant.price<upd at T> where T >= "1Jan97" and T > "1Jan97"`: `window T in ("1Jan97", +inf)`,
		`select T from guide.restaurant.price<upd at T> where T > "1Jan97" or T < "1Jan96"`:   ``,
		`select T from guide.restaurant.price<upd at T> where T > "1Jan97" and T < "31Dec96"`: `window T in ("1Jan97", "31Dec96")`,
	} {
		lines, err := e.PlanDescription(src)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, l := range lines {
			if strings.HasPrefix(l, "window ") {
				got = append(got, l)
			}
		}
		if want == "" && len(got) != 0 || want != "" && (len(got) != 1 || got[0] != want) {
			t.Errorf("%s: window lines %q, want %q", src, got, want)
		}
	}
}
