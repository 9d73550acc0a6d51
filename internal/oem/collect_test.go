package oem_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/guidegen"
	"repro/internal/oem"
	"repro/internal/value"
)

// TestCollectFollowsSuspects replays adversarial histories (shared
// children, cycles, subtrees cut loose, islands created with no path from
// the root) operation by operation on one long-lived database, whose
// collections examine only the suspects, and checks every step against the
// generator's reference model, which rebuilds the reachable subgraph from a
// full walk.
func TestCollectFollowsSuspects(t *testing.T) {
	collections, full, deleted := 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		c := guidegen.NewChurn(seed, 80)
		db := c.DB.Clone()
		db.GarbageCollect() // the first collection walks everything
		for step := 0; step < 60; step++ {
			set := c.Step(1 + int(seed+int64(step))%10)
			for _, op := range set.Canonical() {
				if err := op.Apply(db); err != nil {
					t.Fatalf("seed %d step %d: %s: %v", seed, step, op, err)
				}
			}
			var dead []oem.NodeID
			got := make(map[oem.NodeID]value.Value)
			if set.NeedsCollection(db) {
				var fullWalk bool
				dead, fullWalk = db.Collect(func(n oem.NodeID, v value.Value) { got[n] = v })
				collections++
				if fullWalk {
					full++
				}
				deleted += len(dead)
			}
			if !reflect.DeepEqual(dead, c.Dead) {
				t.Fatalf("seed %d step %d (%s): collected %v, full walk deletes %v", seed, step, set, dead, c.Dead)
			}
			if !reflect.DeepEqual(got, c.DeadValues) {
				t.Fatalf("seed %d step %d: collected values %v, want %v", seed, step, got, c.DeadValues)
			}
			if !db.Equal(c.DB) {
				t.Fatalf("seed %d step %d (%s): snapshot diverged\n got %s\nwant %s", seed, step, set, db, c.DB)
			}
		}
	}
	t.Logf("%d collections, %d full walks, %d nodes deleted", collections, full, deleted)
	if collections == 0 || full*10 > collections {
		t.Fatalf("%d of %d collections fell back to a full walk", full, collections)
	}
}

// TestCollectFallsBackOverBudget cuts loose a cycle too large for one
// backward probe: the collection must report the full walk and still delete
// exactly the cycle.
func TestCollectFallsBackOverBudget(t *testing.T) {
	db := oem.New()
	keep := db.CreateNode(value.Int(1))
	must(t, db.AddArc(db.Root(), "keep", keep))
	const ring = 200
	ids := make([]oem.NodeID, ring)
	for i := range ids {
		ids[i] = db.CreateNode(value.Complex())
	}
	for i, id := range ids {
		must(t, db.AddArc(id, "next", ids[(i+1)%ring]))
	}
	must(t, db.AddArc(db.Root(), "ring", ids[0]))
	if dead, _ := db.Collect(nil); len(dead) != 0 {
		t.Fatalf("nothing is unreachable yet, collected %v", dead)
	}
	must(t, db.RemoveArc(db.Root(), "ring", ids[0]))
	dead, fullWalk := db.Collect(nil)
	if !fullWalk {
		t.Fatal("a 200-node cycle fits no probe budget; expected the full walk")
	}
	if !reflect.DeepEqual(dead, ids) {
		t.Fatalf("collected %v, want the ring %v", dead, ids)
	}
	if err := db.Validate(); err != nil || db.NumNodes() != 2 {
		t.Fatalf("after collection: %d nodes, validate: %v", db.NumNodes(), err)
	}
}

// TestCollectSubtreeCascade cuts loose a subtree far larger than the probe
// budget: every node of it loses its last in-arc in turn, so no probe is
// longer than one node and no full walk is needed.
func TestCollectSubtreeCascade(t *testing.T) {
	db := oem.New()
	top := db.CreateNode(value.Complex())
	must(t, db.AddArc(db.Root(), "top", top))
	want := []oem.NodeID{top}
	for i := 0; i < 50; i++ {
		mid := db.CreateNode(value.Complex())
		must(t, db.AddArc(top, "mid", mid))
		want = append(want, mid)
		for j := 0; j < 10; j++ {
			leaf := db.CreateNode(value.Str(fmt.Sprint(i, j)))
			must(t, db.AddArc(mid, "leaf", leaf))
			want = append(want, leaf)
		}
	}
	db.GarbageCollect()
	must(t, db.RemoveArc(db.Root(), "top", top))
	dead, fullWalk := db.Collect(nil)
	if fullWalk {
		t.Fatal("an in-degree-zero cascade needs no full walk")
	}
	if !reflect.DeepEqual(dead, want) {
		t.Fatalf("collected %d nodes, want %d", len(dead), len(want))
	}
}

// TestMaxIDIsHighWaterMark pins MaxID to the allocation high-water mark: it
// equals the largest id while nothing has been collected and does not drop
// when the newest node is.
func TestMaxIDIsHighWaterMark(t *testing.T) {
	db := oem.New()
	if db.MaxID() != db.Root() {
		t.Fatalf("fresh database: MaxID %s, root %s", db.MaxID(), db.Root())
	}
	must(t, db.CreateNodeWithID(41, value.Int(1)))
	n := db.CreateNode(value.Int(2))
	if n != 42 || db.MaxID() != 42 {
		t.Fatalf("allocated %s, MaxID %s; want 42", n, db.MaxID())
	}
	db.GarbageCollect() // neither node is attached
	if db.NumNodes() != 1 || db.MaxID() != 42 {
		t.Fatalf("after collection: %d nodes, MaxID %s; ids must not be reused", db.NumNodes(), db.MaxID())
	}
	if a := testing.AllocsPerRun(100, func() { _ = db.MaxID(); _ = db.NumNodes() }); a != 0 {
		t.Fatalf("MaxID/NumNodes allocate %v per call", a)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
