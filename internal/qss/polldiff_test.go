package qss

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/oemdiff"
	"repro/internal/timestamp"
	"repro/internal/wrapper"
)

// packageWithRemap is the reference packaging diffResult is checked
// against: it copies the subobject closure of the polling-query result
// into a fresh database, mapping source ids to packaged ids through
// st.remap and allocating fresh ones above st.nextID, and reports the
// remap additions and the new id high-water mark.
func packageWithRemap(st *subState, snap *oem.Database, res *lorel.Result) (*oem.Database, []remapPair, oem.NodeID) {
	out := oem.New()
	nextID := st.nextID
	fresh := make(map[oem.NodeID]oem.NodeID)
	var added []remapPair
	copied := make(map[oem.NodeID]bool)
	var copyNode func(src oem.NodeID) oem.NodeID
	copyNode = func(src oem.NodeID) oem.NodeID {
		id, ok := st.remap[src]
		if !ok {
			id, ok = fresh[src]
		}
		if !ok {
			nextID++
			id = nextID
			fresh[src] = id
			added = append(added, remapPair{Src: src, ID: id})
		}
		if copied[src] {
			return id
		}
		copied[src] = true
		if !out.Has(id) {
			if err := out.CreateNodeWithID(id, snap.MustValue(src)); err != nil {
				panic(err)
			}
		}
		for _, a := range snap.Out(src) {
			c := copyNode(a.Child)
			if err := out.AddArc(id, a.Label, c); err != nil {
				panic(err)
			}
		}
		return id
	}
	for _, row := range res.Rows {
		for _, cell := range row.Cells {
			if !cell.IsNode() {
				continue
			}
			label := cell.Label
			if label == "" {
				label = "result"
			}
			id := copyNode(cell.Node())
			if !out.HasArc(out.Root(), label, id) {
				if err := out.AddArc(out.Root(), label, id); err != nil {
					panic(err)
				}
			}
		}
	}
	return out, added, nextID
}

// pollDiffQueries poll a Churn graph (labels a-d): a plain path, a where
// clause whose membership follows value updates, # paths and a two-column
// select.
var pollDiffQueries = []string{
	`select source.a`,
	`select X from source.a X where X.b < 500`,
	`select source.#.c`,
	`select source.b, source.c.d`,
}

// pollDiffCounts tallies what a campaign exercised.
type pollDiffCounts struct {
	polls int
	ops   map[string]int
}

// checkPollDiff evolves a Churn graph — shared children, cycles, subtrees
// cut loose, arcs removed and re-added — behind a wrapper.Mutable and polls
// it with query, comparing diffResult against packaging plus DiffIdentity
// element for element on every poll (change set, remap additions, id
// high-water mark), and packageResult against packaging with no remap,
// before folding the result in.
func checkPollDiff(t testing.TB, seed int64, query string, polls, maxOps int, counts *pollDiffCounts) {
	rng := rand.New(rand.NewSource(seed))
	c := guidegen.NewChurn(seed, 40)
	src := wrapper.NewMutable(c.DB.Clone())
	st := &subState{
		sub:    Subscription{Name: "S", SourceName: "source", Source: src, Polling: query},
		d:      doem.New(oem.New()),
		remap:  make(map[oem.NodeID]oem.NodeID),
		nextID: 1,
	}
	at := timestamp.MustParse("1Jan97")
	for i := 0; i < polls; i++ {
		if i > 0 {
			set := c.Step(1 + rng.Intn(maxOps))
			if err := src.Mutate(func(db *oem.Database) error {
				_, err := set.Apply(db)
				return err
			}); err != nil {
				t.Fatalf("seed %d poll %d: mutate: %v", seed, i, err)
			}
		}
		snap, err := src.Poll()
		if err != nil {
			t.Fatal(err)
		}
		eng := lorel.NewEngine()
		eng.Register("source", lorel.NewOEMGraph(snap))
		res, err := eng.Query(query)
		if err != nil {
			t.Fatalf("seed %d poll %d: %s: %v", seed, i, query, err)
		}

		pkg, wantAdded, wantNext := packageWithRemap(st, snap, res)
		wantOps, wantErr := oemdiff.DiffIdentity(st.d.Current(), pkg)
		ops, added, next, err := st.diffResult(snap, res)
		where := fmt.Sprintf("seed %d poll %d (%s)", seed, i, query)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: error %v, packaging+DiffIdentity %v", where, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(ops, wantOps) {
			t.Fatalf("%s: ops\n%v\nwant\n%v", where, ops, wantOps)
		}
		if !reflect.DeepEqual(added, wantAdded) || next != wantNext {
			t.Fatalf("%s: remap additions %v next %s, want %v next %s", where, added, next, wantAdded, wantNext)
		}
		// Without stable ids, packaging is the same walk under fresh ids.
		wantPkg, _, wantNext := packageWithRemap(&subState{nextID: st.nextID}, snap, res)
		gotPkg, gotNext := st.packageResult(snap, res)
		if gotNext != wantNext || !samePackaging(gotPkg, wantPkg) {
			t.Fatalf("%s: fresh-id packaging differs (next %s, want %s)", where, gotNext, wantNext)
		}
		if err := st.apply(record{t: at, ops: ops, added: added, nextID: next}); err != nil {
			t.Fatalf("%s: fold: %v", where, err)
		}
		if !oem.Isomorphic(st.d.Current(), pkg) {
			t.Fatalf("%s: folded history diverged from the packaged result", where)
		}
		if counts != nil {
			counts.polls++
			for _, op := range ops {
				counts.ops[opKind(op)]++
			}
		}
		at = at.Add(time.Hour)
	}
}

// samePackaging reports whether two packaged results are equal, with
// every object's arcs in the same order.
func samePackaging(a, b *oem.Database) bool {
	if !a.Equal(b) {
		return false
	}
	for _, n := range a.Nodes() {
		if !reflect.DeepEqual(a.Out(n), b.Out(n)) {
			return false
		}
	}
	return true
}

func opKind(op change.Op) string {
	switch op.(type) {
	case change.CreNode:
		return "creNode"
	case change.UpdNode:
		return "updNode"
	case change.AddArc:
		return "addArc"
	case change.RemArc:
		return "remArc"
	}
	return fmt.Sprintf("%T", op)
}

// TestPollDiffMatchesPackaging: the fused stable-id walk emits exactly
// what packaging the result and diffing it by identity emits, over
// thousands of polls of adversarial sources.
func TestPollDiffMatchesPackaging(t *testing.T) {
	counts := &pollDiffCounts{ops: make(map[string]int)}
	for seed := int64(1); seed <= 6; seed++ {
		for _, q := range pollDiffQueries {
			checkPollDiff(t, seed, q, 90, 9, counts)
		}
	}
	t.Logf("%d polls, ops %v", counts.polls, counts.ops)
	if counts.polls < 2000 {
		t.Errorf("%d polls compared, want at least 2000", counts.polls)
	}
	for _, k := range []string{"creNode", "updNode", "addArc", "remArc"} {
		if counts.ops[k] == 0 {
			t.Errorf("no %s compared", k)
		}
	}
}

// FuzzPollDiff runs short campaigns from fuzzed seeds, queries and step
// sizes through the same comparison.
func FuzzPollDiff(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(3))
	f.Add(int64(7), uint8(1), uint8(9))
	f.Add(int64(42), uint8(2), uint8(1))
	f.Add(int64(-5), uint8(3), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, query, maxOps uint8) {
		q := pollDiffQueries[int(query)%len(pollDiffQueries)]
		checkPollDiff(t, seed, q, 20, 1+int(maxOps)%16, nil)
	})
}
