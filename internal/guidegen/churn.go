package guidegen

import (
	"math/rand"

	"repro/internal/change"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// Churn generates adversarial histories over a small unstructured graph —
// shared children, cycles, subtrees cut loose, arcs removed and re-added,
// creations nothing points at — and is at the same time the reference model
// for them: it applies each set operation by operation and then keeps
// exactly the nodes a full walk from the root reaches, rebuilding its
// database from scratch so that nothing incremental is involved. The
// differential tests of the structures that follow a change set by its
// delta (oem collection, doem, index tables, segment statistics) replay its
// steps and compare against DB and Dead.
type Churn struct {
	// DB is the current snapshot after the steps generated so far.
	DB *oem.Database
	// Dead holds the nodes the last step deleted by unreachability,
	// ascending, and DeadValues their final values.
	Dead       []oem.NodeID
	DeadValues map[oem.NodeID]value.Value

	rng     *rand.Rand
	nextID  oem.NodeID
	removed []oem.Arc // removed at some point: candidates for re-adding
}

var churnLabels = []string{"a", "b", "c", "d"}

// NewChurn builds a random graph of about n nodes under the root: a tree
// grown by random attachment plus n/3 extra arcs between random nodes,
// which share children between parents and close cycles.
func NewChurn(seed int64, n int) *Churn {
	c := &Churn{DB: oem.New(), rng: rand.New(rand.NewSource(seed))}
	complexes := []oem.NodeID{c.DB.Root()}
	for i := 0; i < n; i++ {
		var id oem.NodeID
		if c.rng.Intn(3) == 0 {
			id = c.DB.CreateNode(value.Int(int64(i)))
		} else {
			id = c.DB.CreateNode(value.Complex())
			complexes = append(complexes, id)
		}
		p := complexes[c.rng.Intn(len(complexes))]
		if p == id {
			p = c.DB.Root()
		}
		if err := c.DB.AddArc(p, c.label(), id); err != nil {
			panic(err)
		}
	}
	nodes := c.DB.Nodes()
	for i := 0; i < n/3; i++ {
		// Duplicate arcs are simply skipped.
		_ = c.DB.AddArc(complexes[c.rng.Intn(len(complexes))], c.label(), nodes[c.rng.Intn(len(nodes))])
	}
	c.nextID = c.DB.MaxID()
	return c
}

func (c *Churn) label() string { return churnLabels[c.rng.Intn(len(churnLabels))] }

func (c *Churn) fresh() oem.NodeID {
	c.nextID++
	return c.nextID
}

// Step draws up to nOps operations into one valid change set, applies it to
// DB with step-boundary collection exactly as doem.Apply decides it
// (change.Set.NeedsCollection), and returns it. Operations that would make
// the set invalid are dropped, so a step may be smaller than asked.
func (c *Churn) Step(nOps int) change.Set {
	var set change.Set
	try := func(ops ...change.Op) {
		cand := append(set[:len(set):len(set)], ops...)
		if cand.Validate(c.DB) == nil {
			set = cand
		}
	}
	nodes := c.DB.Nodes()
	pick := func() oem.NodeID { return nodes[c.rng.Intn(len(nodes))] }
	for i := 0; i < nOps; i++ {
		switch c.rng.Intn(9) {
		case 0, 1: // grow: a new node, sometimes with a child of its own
			n := c.fresh()
			if c.rng.Intn(2) == 0 {
				try(change.CreNode{Node: n, Value: value.Int(int64(n))},
					change.AddArc{Parent: pick(), Label: c.label(), Child: n})
				continue
			}
			m := c.fresh()
			try(change.CreNode{Node: n, Value: value.Complex()},
				change.CreNode{Node: m, Value: value.Str("leaf")},
				change.AddArc{Parent: pick(), Label: c.label(), Child: n},
				change.AddArc{Parent: n, Label: c.label(), Child: m})
		case 2: // update a value
			try(change.UpdNode{Node: pick(), Value: value.Int(c.rng.Int63n(1000))})
		case 3: // share a child or close a cycle
			try(change.AddArc{Parent: pick(), Label: c.label(), Child: pick()})
		case 4, 5, 6: // remove an arc, possibly cutting a subtree loose
			if arcs := c.DB.Out(pick()); len(arcs) > 0 {
				a := arcs[c.rng.Intn(len(arcs))]
				try(change.RemArc{Parent: a.Parent, Label: a.Label, Child: a.Child})
			}
		case 7: // re-add an arc removed earlier
			if len(c.removed) > 0 {
				a := c.removed[c.rng.Intn(len(c.removed))]
				try(change.AddArc{Parent: a.Parent, Label: a.Label, Child: a.Child})
			}
		case 8: // a creation nothing points at, or an island a <-> b
			n := c.fresh()
			if c.rng.Intn(2) == 0 {
				try(change.CreNode{Node: n, Value: value.Complex()})
				continue
			}
			m := c.fresh()
			try(change.CreNode{Node: n, Value: value.Complex()},
				change.CreNode{Node: m, Value: value.Complex()},
				change.AddArc{Parent: n, Label: c.label(), Child: m},
				change.AddArc{Parent: m, Label: c.label(), Child: n})
		}
	}

	for _, op := range set.Canonical() {
		if err := op.Apply(c.DB); err != nil {
			panic(err) // the set was validated against c.DB
		}
		if r, ok := op.(change.RemArc); ok {
			c.removed = append(c.removed, oem.Arc{Parent: r.Parent, Label: r.Label, Child: r.Child})
		}
	}
	c.Dead, c.DeadValues = nil, make(map[oem.NodeID]value.Value)
	if set.NeedsCollection(c.DB) {
		c.keepReachable()
	}
	return set
}

// keepReachable rebuilds DB as the subgraph a full walk from the root
// reaches, recording everything else in Dead.
func (c *Churn) keepReachable() {
	live := c.DB.Reachable()
	next := oem.New()
	// The root may have been updated to an atomic value while it had no
	// subobjects; it keeps whatever value it has.
	if err := next.UpdateNode(next.Root(), c.DB.MustValue(c.DB.Root())); err != nil {
		panic(err)
	}
	for _, id := range c.DB.Nodes() {
		switch {
		case !live[id]:
			c.Dead = append(c.Dead, id)
			c.DeadValues[id] = c.DB.MustValue(id)
		case id != next.Root():
			if err := next.CreateNodeWithID(id, c.DB.MustValue(id)); err != nil {
				panic(err)
			}
		}
	}
	for _, id := range c.DB.Nodes() {
		if !live[id] {
			continue
		}
		for _, a := range c.DB.Out(id) {
			if err := next.AddArc(a.Parent, a.Label, a.Child); err != nil {
				panic(err)
			}
		}
	}
	c.DB = next
}

// GenerateChurn is GenerateHistory over a Churn graph: the initial snapshot
// and a history of up to steps non-empty steps, one day apart.
func GenerateChurn(seed int64, nNodes, steps, opsPerStep int) (*oem.Database, change.History) {
	c := NewChurn(seed, nNodes)
	initial := c.DB.Clone()
	t := timestamp.MustParse("1Jan97")
	var h change.History
	for i := 0; i < steps; i++ {
		if set := c.Step(opsPerStep); len(set) > 0 {
			h = append(h, change.Step{At: t, Ops: set})
		}
		t = t.Add(86400e9) // +1 day
	}
	return initial, h
}
