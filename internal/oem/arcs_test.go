package oem_test

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/oem"
	"repro/internal/value"
)

// arcModel is the arc relation of an oem.Database kept apart from it: the arc
// set, the node values, and reachability computed from the set alone.
type arcModel struct {
	arcs  map[oem.Arc]bool
	nodes map[oem.NodeID]value.Value
	root  oem.NodeID
}

// reachable is every node the root reaches through the model's arcs.
func (m *arcModel) reachable() map[oem.NodeID]bool {
	out := map[oem.NodeID][]oem.NodeID{}
	for a := range m.arcs {
		out[a.Parent] = append(out[a.Parent], a.Child)
	}
	seen := map[oem.NodeID]bool{m.root: true}
	stack := []oem.NodeID{m.root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range out[n] {
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return seen
}

// rebuild builds a database holding the model's nodes and arcs, adding
// the arcs in rng's order rather than the original's.
func (m *arcModel) rebuild(t *testing.T, rng *rand.Rand) *oem.Database {
	t.Helper()
	db := oem.New()
	for id, v := range m.nodes {
		if id != db.Root() {
			must(t, db.CreateNodeWithID(id, v))
		}
	}
	arcs := make([]oem.Arc, 0, len(m.arcs))
	for a := range m.arcs {
		arcs = append(arcs, a)
	}
	rng.Shuffle(len(arcs), func(i, j int) { arcs[i], arcs[j] = arcs[j], arcs[i] })
	for _, a := range arcs {
		must(t, db.AddArc(a.Parent, a.Label, a.Child))
	}
	return db
}

// check holds db to the model: HasArc on every arc and on random triples,
// NumArcs, Arcs, Equal and Clone in both directions and against a rebuild
// in another arc order, and Validate against the model's reachability.
func (m *arcModel) check(t *testing.T, db *oem.Database, rng *rand.Rand, ids []oem.NodeID, labels []string, step int) {
	t.Helper()
	if db.NumArcs() != len(m.arcs) {
		t.Fatalf("step %d: NumArcs = %d, model %d", step, db.NumArcs(), len(m.arcs))
	}
	for a := range m.arcs {
		if !db.HasArc(a.Parent, a.Label, a.Child) {
			t.Fatalf("step %d: HasArc(%s) = false", step, a)
		}
	}
	for i := 0; i < 50; i++ {
		a := oem.Arc{Parent: ids[rng.Intn(len(ids))], Label: labels[rng.Intn(len(labels))], Child: ids[rng.Intn(len(ids))]}
		if db.HasArc(a.Parent, a.Label, a.Child) != m.arcs[a] {
			t.Fatalf("step %d: HasArc(%s) = %v, model %v", step, a, !m.arcs[a], m.arcs[a])
		}
	}
	all := db.Arcs()
	if len(all) != len(m.arcs) {
		t.Fatalf("step %d: Arcs() has %d arcs, model %d", step, len(all), len(m.arcs))
	}
	for _, a := range all {
		if !m.arcs[a] {
			t.Fatalf("step %d: Arcs() has %s, the model does not", step, a)
		}
	}
	c := db.Clone()
	if !c.Equal(db) || !db.Equal(c) || c.NumArcs() != len(m.arcs) {
		t.Fatalf("step %d: Clone differs from its source", step)
	}
	if step%25 == 0 {
		r := m.rebuild(t, rng)
		if !r.Equal(db) || !db.Equal(r) {
			t.Fatalf("step %d: a rebuild in another arc order is not Equal", step)
		}
		if len(all) > 0 {
			a := all[rng.Intn(len(all))]
			must(t, c.RemoveArc(a.Parent, a.Label, a.Child))
			if c.Equal(db) || db.Equal(c) || !db.HasArc(a.Parent, a.Label, a.Child) {
				t.Fatalf("step %d: removing %s from a clone is not seen as a difference, or reaches the source", step, a)
			}
		}
	}
	live := m.reachable()
	unreachable := false
	for id := range m.nodes {
		unreachable = unreachable || !live[id]
	}
	if err := db.Validate(); (err != nil) != unreachable {
		t.Fatalf("step %d: Validate = %v, model has unreachable nodes: %v", step, err, unreachable)
	}
}

// TestArcRelationMatchesModel drives random AddArc, RemoveArc and Collect
// over a graph whose hub has hundreds of in- and out-arcs, so HasArc's
// scan of the shorter adjacency list meets long lists on both sides, and
// holds every arc query to a map kept beside the database.
func TestArcRelationMatchesModel(t *testing.T) {
	const spokes = 240
	labels := []string{"down", "up", "x", "y"}
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := oem.New()
		m := &arcModel{arcs: map[oem.Arc]bool{}, nodes: map[oem.NodeID]value.Value{db.Root(): value.Complex()}, root: db.Root()}
		add := func(p oem.NodeID, l string, c oem.NodeID) {
			must(t, db.AddArc(p, l, c))
			m.arcs[oem.Arc{Parent: p, Label: l, Child: c}] = true
		}
		create := func(v value.Value) oem.NodeID {
			id := db.CreateNode(v)
			m.nodes[id] = v
			return id
		}
		hub := create(value.Complex())
		add(db.Root(), "hub", hub)
		keep := oem.Arc{Parent: db.Root(), Label: "hub", Child: hub}
		for i := 0; i < spokes; i++ {
			s := create(value.Complex())
			add(hub, "down", s)
			add(s, "up", hub)
		}
		if len(db.Out(hub)) < 200 || len(db.In(hub)) < 200 {
			t.Fatalf("hub has %d out-arcs and %d in-arcs", len(db.Out(hub)), len(db.In(hub)))
		}
		pick := func() oem.NodeID {
			if rng.Intn(4) == 0 {
				return hub
			}
			for {
				ids := db.Nodes()
				if id := ids[rng.Intn(len(ids))]; db.IsComplex(id) || rng.Intn(3) == 0 {
					return id
				}
			}
		}
		for step := 0; step < 600; step++ {
			switch r := rng.Intn(10); {
			case r < 4:
				p, l, c := pick(), labels[rng.Intn(len(labels))], pick()
				if rng.Intn(5) == 0 {
					c = create(value.Int(int64(step)))
				}
				err := db.AddArc(p, l, c)
				switch {
				case !db.IsComplex(p):
					if !errors.Is(err, oem.ErrNotComplex) {
						t.Fatalf("step %d: AddArc from atomic %s: %v", step, p, err)
					}
				case m.arcs[oem.Arc{Parent: p, Label: l, Child: c}]:
					if !errors.Is(err, oem.ErrArcExists) {
						t.Fatalf("step %d: AddArc of existing (%s, %s, %s): %v", step, p, l, c, err)
					}
				default:
					must(t, err)
					m.arcs[oem.Arc{Parent: p, Label: l, Child: c}] = true
				}
			case r < 8:
				a := oem.Arc{Parent: pick(), Label: labels[rng.Intn(len(labels))], Child: pick()}
				if all := db.Arcs(); len(all) > 0 && rng.Intn(4) != 0 {
					a = all[rng.Intn(len(all))]
				}
				if a == keep {
					continue // the hub stays, with its long lists
				}
				err := db.RemoveArc(a.Parent, a.Label, a.Child)
				if m.arcs[a] {
					must(t, err)
					delete(m.arcs, a)
				} else if !errors.Is(err, oem.ErrNoSuchArc) {
					t.Fatalf("step %d: RemoveArc of absent %s: %v", step, a, err)
				}
			default:
				live := m.reachable()
				dead, _ := db.Collect(nil)
				for _, id := range dead {
					if live[id] {
						t.Fatalf("step %d: Collect deleted reachable %s", step, id)
					}
					delete(m.nodes, id)
				}
				for a := range m.arcs {
					if _, ok := m.nodes[a.Parent]; !ok {
						delete(m.arcs, a)
					}
				}
				if len(dead) != len(m.nodes)+len(dead)-len(live) {
					t.Fatalf("step %d: Collect deleted %d nodes, %d were unreachable", step, len(dead), len(m.nodes)+len(dead)-len(live))
				}
			}
			m.check(t, db, rng, db.Nodes(), labels, step)
		}
		if a := testing.AllocsPerRun(100, func() { db.HasArc(hub, "x", hub) }); a != 0 {
			t.Fatalf("HasArc allocates %v per call", a)
		}
	}
}
