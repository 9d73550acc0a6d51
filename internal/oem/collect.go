package oem

import (
	"sort"

	"repro/internal/value"
)

// Deletion by unreachability (paper Section 2.2) runs at every history
// step boundary, so its cost has to follow the step, not the database.
// A Database that has been collected once remembers which nodes each later
// mutation could have orphaned — the suspects — and the next collection
// decides reachability for those alone: a suspect is live iff a backward
// walk over in-arcs meets the root (or a node already proven live), and
// dead iff the walk exhausts its ancestors without meeting it, in which
// case every ancestor visited is dead too and their children become
// suspects in turn. A node without in-arcs is the trivial case, which
// makes the usual "subtree cut loose" an in-degree-zero cascade. Only when
// one backward walk would visit more than probeBudget nodes (large cycles,
// heavily shared children) does the collection fall back to one full
// Reachable() pass, which is also the path for a database that has never
// been collected and may hold garbage no mutation accounts for.

// probeBudget bounds the nodes one backward reachability walk may visit
// before the collection gives up on the incremental path.
const probeBudget = 64

// suspect records that n may have become unreachable. Tracking only runs
// between collections; once the suspects outnumber half the nodes a full
// walk is no dearer than probing them, so tracking stops (and the list
// stays bounded) until the next collection re-establishes it.
func (db *Database) suspect(n NodeID) {
	if !db.swept {
		return
	}
	if len(db.suspects) > len(db.values)/2 {
		db.swept, db.suspects = false, nil
		return
	}
	db.suspects = append(db.suspects, n)
}

// GarbageCollect deletes every node unreachable from the root, along with
// arcs among deleted nodes, and returns the ids removed (ascending). This
// implements the paper's implicit deletion by unreachability, applied at the
// end of each history step (Section 2.2).
func (db *Database) GarbageCollect() []NodeID {
	dead, _ := db.Collect(nil)
	return dead
}

// Collect is GarbageCollect for callers that keep what is deleted: visit,
// when non-nil, receives each doomed node and its final value before the
// node is removed, in ascending id order. fullWalk reports that the
// collection had to walk the whole graph (first collection, or a probe
// over budget) instead of examining only the suspects.
func (db *Database) Collect(visit func(NodeID, value.Value)) (dead []NodeID, fullWalk bool) {
	if db.swept {
		var ok bool
		dead, ok = db.deadAmongSuspects()
		fullWalk = !ok
	} else {
		fullWalk = true
	}
	if fullWalk {
		live := db.Reachable()
		dead = nil
		for id := range db.values {
			if !live[id] {
				dead = append(dead, id)
			}
		}
	}
	db.swept, db.suspects = true, db.suspects[:0]
	if len(dead) == 0 {
		return nil, fullWalk
	}
	sort.Slice(dead, func(i, j int) bool { return dead[i] < dead[j] })
	for _, id := range dead {
		if visit != nil {
			visit(id, db.values[id])
		}
		delete(db.values, id)
	}
	// An in-arc of a dead node comes from a dead node (a live parent would
	// make it reachable), so walking the dead nodes' out-arcs covers every
	// arc to delete; only live children need their in-lists repaired.
	for _, id := range dead {
		db.nArcs -= len(db.out[id])
		for _, a := range db.out[id] {
			if _, live := db.values[a.Child]; live {
				db.in[a.Child] = removeArc(db.in[a.Child], a)
			}
		}
		delete(db.out, id)
		delete(db.in, id)
	}
	return dead, fullWalk
}

// Probe verdicts. probing marks the nodes of the walk in progress.
const (
	probeLive uint8 = iota + 1
	probeDead
	probing
)

// deadAmongSuspects returns the unreachable nodes given that every one of
// them is reachable from an unreachable suspect. ok is false when a
// backward walk ran over probeBudget; nothing has been modified then.
func (db *Database) deadAmongSuspects() (dead []NodeID, ok bool) {
	type frame struct {
		n    NodeID
		next int // next in-arc of n to follow
	}
	verdict := map[NodeID]uint8{db.root: probeLive}
	work := append([]NodeID(nil), db.suspects...)
	var (
		visited []NodeID
		path    []frame
	)
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		if verdict[n] != 0 || !db.Has(n) {
			continue
		}
		// Depth-first over in-arcs; path is the chain from n to the node
		// being expanded, so meeting a live node proves the whole chain.
		verdict[n] = probing
		visited = append(visited[:0], n)
		path = append(path[:0], frame{n: n})
		reached := false
		for len(path) > 0 && !reached {
			f := &path[len(path)-1]
			in := db.in[f.n]
			if f.next == len(in) {
				path = path[:len(path)-1]
				continue
			}
			p := in[f.next].Parent
			f.next++
			switch verdict[p] {
			case probeLive:
				reached = true
			case 0:
				if len(visited) == probeBudget {
					return nil, false
				}
				verdict[p] = probing
				visited = append(visited, p)
				path = append(path, frame{n: p})
			}
		}
		if reached {
			for _, f := range path {
				verdict[f.n] = probeLive
			}
			for _, v := range visited {
				if verdict[v] == probing {
					delete(verdict, v) // side branch: undecided
				}
			}
			continue
		}
		// Every ancestor of n was visited and none is live: all of them are
		// unreachable, and whatever they point at is now in doubt.
		for _, v := range visited {
			verdict[v] = probeDead
			dead = append(dead, v)
			for _, a := range db.out[v] {
				if verdict[a.Child] == 0 {
					work = append(work, a.Child)
				}
			}
		}
	}
	return dead, true
}
