package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/change"
	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// Everything the program under test receives is generated here, from the
// seed alone, before any timing starts: the source guides, the mutations
// applied to them, the change sets and the query texts. Each workload
// derives its own rand stream from (seed, workload name), so changing one
// workload's sizes never perturbs another's inputs.

// sizes fixes the input sizes and op counts of one workload. The op
// counts are per nominal second of --seconds (calibrated at the commit
// that introduced the benchmark), never a wall-clock budget: every commit
// runs the same operation list for a given --seconds.
type sizes struct {
	// Restaurants is the size of the generated guide.
	Restaurants int
	// HistorySteps is the history preloaded before timing (query_history,
	// store_mixed).
	HistorySteps int
	// OpsPerStep is the size of each generated change set.
	OpsPerStep int
	// Ops is the length of the timed operation list. For notify_idle it
	// is a multiple of idleSubs (whole cycles); for query_history it is
	// split evenly between the callers.
	Ops int
	// Warmup is the number of untimed ops of the same kind that precede
	// the timed list and count as set-up.
	Warmup int
	// Prefix, when positive, runs only that many ops of the generated
	// list (the traced repetition replays the first quarter).
	Prefix int
}

// run is the number of timed ops a repetition executes.
func (sz sizes) run() int {
	if sz.Prefix > 0 {
		return sz.Prefix
	}
	return sz.Ops
}

// epoch is the first polling / history instant of every workload.
var epoch = timestamp.MustParse("1Jan97")

const day = 24 * time.Hour

// rngFor derives the rand stream of one workload.
func rngFor(seed int64, workload string) *rand.Rand {
	h := uint64(seed)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
	for _, c := range []byte(workload) {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return rand.New(rand.NewSource(int64(h)))
}

// guideCuisines are the eight cuisines guidegen draws from; notify_idle
// has one pair of subscriptions per cuisine.
var guideCuisines = []string{"Thai", "Indian", "Italian", "Mexican", "Japanese", "French", "Ethiopian", "Greek"}

// priceRef names one integer price object of the generated guide and the
// restaurant that owns it.
type priceRef struct {
	Node    oem.NodeID
	Name    string
	Cuisine string
	Value   int64
}

// intPrices lists the guide's integer price objects, in root-arc order.
func intPrices(db *oem.Database) []priceRef {
	var refs []priceRef
	for _, ra := range db.OutLabeled(db.Root(), "restaurant") {
		prices := db.OutLabeled(ra.Child, "price")
		names := db.OutLabeled(ra.Child, "name")
		cuisines := db.OutLabeled(ra.Child, "cuisine")
		if len(prices) == 0 || len(names) == 0 || len(cuisines) == 0 {
			continue
		}
		v := db.MustValue(prices[0].Child)
		if v.Kind() != value.KindInt {
			continue
		}
		refs = append(refs, priceRef{
			Node:    prices[0].Child,
			Name:    db.MustValue(names[0].Child).AsString(),
			Cuisine: db.MustValue(cuisines[0].Child).AsString(),
			Value:   v.AsInt(),
		})
	}
	return refs
}

// priceUpdate sets one price object to a value it does not currently hold
// (so the differ must report it).
type priceUpdate struct {
	Node    oem.NodeID
	Value   int64
	Name    string // the owning restaurant's name
	Cuisine string
}

// mutation is one source change of a notify workload. notify_changed uses
// all of it (one new restaurant and two price updates); notify_idle only
// one price update.
type mutation struct {
	NewName    string
	NewCuisine string
	NewPrice   int64
	Updates    []priceUpdate
}

// apply performs the mutation on the live source database.
func (m *mutation) apply(db *oem.Database) error {
	if m.NewName != "" {
		r := db.CreateNode(value.Complex())
		if err := db.AddArc(db.Root(), "restaurant", r); err != nil {
			return err
		}
		for _, f := range []struct {
			label string
			v     value.Value
		}{
			{"name", value.Str(m.NewName)},
			{"price", value.Int(m.NewPrice)},
			{"cuisine", value.Str(m.NewCuisine)},
		} {
			if err := db.AddArc(r, f.label, db.CreateNode(f.v)); err != nil {
				return err
			}
		}
	}
	for _, u := range m.Updates {
		if err := db.UpdateNode(u.Node, value.Int(u.Value)); err != nil {
			return err
		}
	}
	return nil
}

// notifyInputs is the generated input of one notify workload.
type notifyInputs struct {
	Source    *oem.Database
	Mutations []mutation // warm-up mutations first, then the timed ones
}

// pickUpdate draws a price update that changes the value, and records the
// new value so later draws on the same object change it again.
func pickUpdate(rng *rand.Rand, refs []priceRef, i int) priceUpdate {
	ref := &refs[i]
	nv := int64(5 + rng.Intn(40))
	if nv == ref.Value {
		nv++
	}
	ref.Value = nv
	return priceUpdate{Node: ref.Node, Value: nv, Name: ref.Name, Cuisine: ref.Cuisine}
}

// genNotifyChanged builds the notify_changed inputs: every mutation adds
// one restaurant and updates two distinct existing prices.
func genNotifyChanged(seed int64, sz sizes) *notifyInputs {
	rng := rngFor(seed, "notify_changed")
	db := guidegen.Synthetic(rng.Int63(), sz.Restaurants)
	refs := intPrices(db)
	in := &notifyInputs{Source: db}
	for i := 0; i < sz.Warmup+sz.Ops; i++ {
		a := rng.Intn(len(refs))
		b := (a + 1 + rng.Intn(len(refs)-1)) % len(refs)
		in.Mutations = append(in.Mutations, mutation{
			NewName:    fmt.Sprintf("Bench %d-%04d", seed, i),
			NewCuisine: guideCuisines[rng.Intn(len(guideCuisines))],
			NewPrice:   int64(5 + rng.Intn(40)),
			Updates:    []priceUpdate{pickUpdate(rng, refs, a), pickUpdate(rng, refs, b)},
		})
	}
	return in
}

// idleSubs is the number of subscriptions notify_idle polls per cycle:
// one <upd> and one <cre> filter per cuisine.
const idleSubs = 16

// genNotifyIdle builds the notify_idle inputs: one price update per cycle
// of idleSubs polls, so exactly one poll in idleSubs must notify.
func genNotifyIdle(seed int64, sz sizes) *notifyInputs {
	rng := rngFor(seed, "notify_idle")
	db := guidegen.Synthetic(rng.Int63(), sz.Restaurants)
	refs := intPrices(db)
	in := &notifyInputs{Source: db}
	cycles := (sz.Warmup + sz.Ops) / idleSubs
	for i := 0; i < cycles; i++ {
		in.Mutations = append(in.Mutations, mutation{
			Updates: []priceUpdate{pickUpdate(rng, refs, rng.Intn(len(refs)))},
		})
	}
	return in
}

// queryClasses are the nine query classes of query_history, in the order
// the generator cycles through them.
var queryClasses = []string{"cre", "upd", "add", "at_hot", "at_cold", "join", "agg", "exists", "xlate"}

// queryOp is one ad-hoc query: its class and its text.
type queryOp struct {
	Class string
	Text  string
}

// queryGen draws query texts over a guide history of the given length.
type queryGen struct {
	rng   *rand.Rand
	steps int
	hot   []timestamp.Time // the at_hot instants
}

func newQueryGen(rng *rand.Rand, steps int) *queryGen {
	g := &queryGen{rng: rng, steps: steps}
	for i := 0; i < 8; i++ {
		g.hot = append(g.hot, g.instant(rng.Intn(steps)))
	}
	return g
}

// instant is a history instant: noon of the given step's day, which no
// step time equals (steps happen at midnight).
func (g *queryGen) instant(step int) timestamp.Time {
	return epoch.Add(time.Duration(step)*day + day/2)
}

// recent is an instant within the last n steps at a random minute, so the
// text (and with it the parse- and plan-cache key) is almost always new.
func (g *queryGen) recent(n int) timestamp.Time {
	if n > g.steps {
		n = g.steps
	}
	return epoch.Add(time.Duration(g.steps-n)*day + time.Duration(g.rng.Intn(n*1440))*time.Minute)
}

// text draws one query text of the given class. Classes differ in what
// they exercise: annotation kind, view-cache residency (at_hot has 8
// distinct instants, at_cold one per step) and whether constants repeat
// (agg, exists and at_hot repeat texts and so hit the parse and plan
// caches; cre, upd, add and join almost never do).
func (g *queryGen) text(class string) string {
	switch class {
	case "cre":
		return fmt.Sprintf(`select N from guide.restaurant<cre at T> R, R.name N where T > %q`, g.recent(10))
	case "upd", "xlate":
		return fmt.Sprintf(`select N, T, NV from guide.restaurant R, R.name N, R.price<upd at T to NV> where T > %q and NV > %d`,
			g.recent(20), 30+g.rng.Intn(10))
	case "add":
		return fmt.Sprintf(`select N, T from guide.restaurant R, R.name N, R.<add at T>comment C where T > %q`, g.recent(10))
	case "at_hot":
		return fmt.Sprintf(`select P from guide.<at %q>restaurant.price P where P < 8`, g.hot[g.rng.Intn(len(g.hot))])
	case "at_cold":
		return fmt.Sprintf(`select P from guide.<at %q>restaurant.price P where P < 8`, g.instant(g.rng.Intn(g.steps)))
	case "join":
		return fmt.Sprintf(`select N from guide.restaurant R, R.name N, R.cuisine C, R.price P where C = %q and P < %d`,
			guideCuisines[g.rng.Intn(len(guideCuisines))], 6+g.rng.Intn(6))
	case "agg":
		return `select count(guide.restaurant.comment)`
	case "exists":
		return fmt.Sprintf(`select N from guide.restaurant R, R.name N where exists P in R.price : P > %d`, 41+g.rng.Intn(3))
	}
	panic("benchmark: unknown query class " + class)
}

// ops draws n ops cycling through the classes, then shuffles them so no
// class is periodic in the schedule.
func (g *queryGen) ops(n int) []queryOp {
	out := make([]queryOp, n)
	for i := range out {
		c := queryClasses[i%len(queryClasses)]
		out[i] = queryOp{Class: c, Text: g.text(c)}
	}
	g.rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// queryCallers is the number of concurrent closed-loop callers sharing
// the one chorel.DB in query_history.
const queryCallers = 2

// queryInputs is the generated input of query_history.
type queryInputs struct {
	Initial *oem.Database
	History change.History
	Warmup  []queryOp
	Callers [queryCallers][]queryOp
}

func genQueryHistory(seed int64, sz sizes) *queryInputs {
	rng := rngFor(seed, "query_history")
	initial, h := guidegen.GenerateHistory(rng.Int63(), sz.Restaurants, sz.HistorySteps, sz.OpsPerStep)
	g := newQueryGen(rng, sz.HistorySteps)
	in := &queryInputs{Initial: initial, History: h, Warmup: g.ops(sz.Warmup)}
	for c := range in.Callers {
		in.Callers[c] = g.ops(sz.Ops / queryCallers)
	}
	return in
}

// storeQueries is the number of queries that follow the write in each
// store_mixed round.
const storeQueries = 4

// storeRound is one store_mixed op: a change set applied at At, then four
// queries (cre recent, upd, at into sealed history, join).
type storeRound struct {
	At      timestamp.Time
	Set     change.Set
	Queries [storeQueries]queryOp
}

// storeInputs is the generated input of store_mixed.
type storeInputs struct {
	Initial *oem.Database
	Preload change.History
	Rounds  []storeRound // warm-up rounds first, then the timed ones
}

func genStoreMixed(seed int64, sz sizes) *storeInputs {
	rng := rngFor(seed, "store_mixed")
	ev := guidegen.NewEvolver(rng.Int63(), sz.Restaurants)
	in := &storeInputs{Initial: ev.DB.Clone()}
	step := 0
	next := func() (timestamp.Time, change.Set) {
		for {
			t := epoch.Add(time.Duration(step) * day)
			step++
			if set := ev.Step(sz.OpsPerStep); len(set) > 0 {
				return t, set
			}
		}
	}
	for i := 0; i < sz.HistorySteps; i++ {
		t, set := next()
		in.Preload = append(in.Preload, change.Step{At: t, Ops: set})
	}
	for i := 0; i < sz.Warmup+sz.Ops; i++ {
		t, set := next()
		// The generator sees the history as it stands after this round's
		// write: "recent" follows the growing history, and the <at T>
		// query reaches back into the preloaded (long since sealed) part.
		g := &queryGen{rng: rng, steps: step}
		at := g.instant(rng.Intn(sz.HistorySteps / 2))
		in.Rounds = append(in.Rounds, storeRound{At: t, Set: set, Queries: [storeQueries]queryOp{
			{Class: "cre", Text: g.text("cre")},
			{Class: "upd", Text: g.text("upd")},
			{Class: "at", Text: fmt.Sprintf(`select P from guide.<at %q>restaurant.price P where P < 8`, at)},
			{Class: "join", Text: g.text("join")},
		}})
	}
	return in
}
