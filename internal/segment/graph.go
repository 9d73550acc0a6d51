package segment

import (
	"fmt"
	"sort"

	"repro/internal/doem"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// DB is the store's query view: a lorel.Graph whose answers are
// byte-identical to a monolithic *doem.Database holding the same history,
// assembled from the store summaries, the active segment, and — only when
// a question actually reaches into sealed time — the sealed segments'
// annotation indexes. Annotation-bounded liveness questions touch at most
// the one segment covering the queried instant, which is what keeps `<at
// T>` query time flat as total history grows.
//
// DB deliberately does not implement lorel.LabelSeeker: the evaluator's
// scan over Out/OutAll preserves ordering parity without per-segment label
// indexes.
//
// Concurrency contract: same as *doem.Database — any number of concurrent
// readers, mutators (Store.Apply/Seal/Truncate) must exclude them. Index
// loading on the read path has its own internal lock.
type DB struct {
	s *Store
}

var _ lorel.Graph = (*DB)(nil)

// Graph returns the store's query view.
func (s *Store) Graph() *DB { return &DB{s: s} }

// mustIndex loads a sealed segment's index for the read path. Graph
// methods cannot return errors; a load failure here means the store's
// files were damaged while open (the recovery paths run at Open), which is
// unrecoverable mid-query.
func (s *Store) mustIndex(h *handle) *segIndex {
	x, err := s.index(h)
	if err != nil {
		panic(fmt.Sprintf("segment: query on damaged store: %v", err))
	}
	return x
}

// Root implements lorel.Graph.
func (g *DB) Root() oem.NodeID {
	g.s.touch()
	return g.s.active.Root()
}

// Value implements lorel.Graph: the current value from the active segment,
// or the final value of a node whose deletion has been sealed away.
func (g *DB) Value(n oem.NodeID) (value.Value, bool) {
	g.s.touch()
	if v, ok := g.s.active.Value(n); ok {
		return v, true
	}
	v, ok := g.s.dead[n]
	return v, ok
}

// Out implements lorel.Graph: the current snapshot lives entirely in the
// active segment.
func (g *DB) Out(n oem.NodeID) []oem.Arc {
	g.s.touch()
	return g.s.active.Out(n)
}

// OutAll implements lorel.Graph: the store registry is the full arc
// relation in monolithic insertion order.
func (g *DB) OutAll(n oem.NodeID) []oem.Arc {
	g.s.touch()
	return g.s.registry[n]
}

// CreTime implements lorel.Graph. A node is created exactly once, so its
// cre annotation is either still in the active segment or in the sealed
// summary.
func (g *DB) CreTime(n oem.NodeID) (timestamp.Time, bool) {
	g.s.touch()
	if t, ok := g.s.active.CreTime(n); ok {
		return t, true
	}
	t, ok := g.s.cre[n]
	return t, ok
}

// UpdTriplesIn implements lorel.Graph: the upd chains of the sealed
// segments whose interval meets the window, in interval order, then the
// active segment's when the window reaches past the last seal, with new
// values derived exactly as the monolithic database derives them. A
// window that lies after the last seal reads no sealed segment.
func (g *DB) UpdTriplesIn(n oem.NodeID, from, to timestamp.Time) []doem.UpdInfo {
	g.s.touch()
	if from.After(to) {
		return nil
	}
	var ups []doem.UpdInfo
	for _, h := range g.s.segsIn(from, to) {
		for _, a := range within(g.s.mustIndex(h).updChain(n), from, to, func(a *updAnnot) timestamp.Time { return a.At }) {
			ups = append(ups, doem.UpdInfo{At: a.At, Old: a.Old})
		}
	}
	sealed := len(ups)
	if to.After(g.s.lastSeal) {
		// The active database derives its own new values: the next upd's
		// old value, or the current value, which is the store's.
		active := g.s.active.UpdTriplesIn(n, from, to)
		if sealed == 0 {
			return active
		}
		ups = append(ups, active...)
	}
	for i := 0; i < sealed; i++ {
		if i+1 < len(ups) {
			ups[i].New = ups[i+1].Old
		} else {
			ups[i].New = g.ValueAt(n, to)
		}
	}
	return ups
}

// ArcAnnotsIn implements lorel.Graph: the concatenation of the chains of
// the sealed segments whose interval meets the window, in interval order,
// and the active chain, which is the monolithic chain in timestamp order.
func (g *DB) ArcAnnotsIn(a oem.Arc, from, to timestamp.Time) []doem.ArcAnnot {
	g.s.touch()
	if from.After(to) {
		return nil
	}
	var anns []doem.ArcAnnot
	for _, h := range g.s.segsIn(from, to) {
		anns = append(anns, within(g.s.mustIndex(h).arcChain(a), from, to, func(a *doem.ArcAnnot) timestamp.Time { return a.At })...)
	}
	if !to.After(g.s.lastSeal) {
		return anns
	}
	active := g.s.active.ArcAnnotsIn(a, from, to)
	if anns == nil {
		return active
	}
	return append(anns, active...)
}

// within returns the part of a time-ordered chain whose times lie in the
// closed window [from, to].
func within[A any](chain []A, from, to timestamp.Time, at func(*A) timestamp.Time) []A {
	lo := sort.Search(len(chain), func(i int) bool { return !at(&chain[i]).Before(from) })
	hi := sort.Search(len(chain), func(i int) bool { return at(&chain[i]).After(to) })
	return chain[lo:max(lo, hi)]
}

// ArcLiveAt implements lorel.Graph. An arc with no annotations in any
// layer is vacuously live at every instant — the monolithic convention,
// which covers unknown arcs, untouched O_0 arcs, and arcs orphaned by node
// garbage collection alike. Otherwise the instant t is covered by exactly
// one layer — the active segment or one sealed segment — and that layer
// alone answers: its chain entries at or before t toggle liveness from the
// layer's start status.
func (g *DB) ArcLiveAt(a oem.Arc, t timestamp.Time) bool {
	g.s.touch()
	if g.unannotated(a) {
		return true
	}
	if i := g.s.covering(t); i >= 0 {
		return liveInSegment(g.s.mustIndex(g.s.segs[i]), a, t)
	}
	return g.liveInActive(a, t)
}

// unannotated reports whether the arc carries no annotations in sealed or
// active history.
func (g *DB) unannotated(a oem.Arc) bool {
	if _, ok := g.s.sealedStatus[a]; ok {
		return false
	}
	return len(g.s.active.ArcAnnots(a)) == 0
}

// liveInSegment resolves liveness at an instant inside a sealed segment's
// interval from that segment's index alone. The caller has established the
// arc is annotated somewhere, so the live-at-start set is authoritative
// when the segment's own chain has no entry at or before t.
func liveInSegment(x *segIndex, a oem.Arc, t timestamp.Time) bool {
	live := x.liveAtStart(a)
	for _, ann := range x.arcChain(a) {
		if ann.At.After(t) {
			break
		}
		live = ann.Kind == doem.AnnotAdd
	}
	return live
}

// liveInActive resolves liveness at an instant after the last seal for an
// arc annotated somewhere.
func (g *DB) liveInActive(a oem.Arc, t timestamp.Time) bool {
	if len(g.s.active.ArcAnnots(a)) > 0 {
		// The active chain's first annotation pins the status at the seal
		// boundary (add ⇒ was dead, rem ⇒ was live), so the monolithic
		// toggle over the active chain alone is exact.
		return g.s.active.ArcLiveAt(a, t)
	}
	// Annotated only in sealed history and untouched since: the arc's
	// status at the boundary is its most recent sealed annotation.
	return g.s.sealedStatus[a] == doem.AnnotAdd
}

// ValueAt implements lorel.Graph: the old value of the earliest upd
// annotation after t, from the layer covering t or the first later one
// that updates n, or the merged current value when no later upd exists.
// It loads at most the covering sealed index, and only when that segment
// updates n: a later segment's first old value is in its handle.
func (g *DB) ValueAt(n oem.NodeID, t timestamp.Time) value.Value {
	g.s.touch()
	if i := g.s.covering(t); i >= 0 {
		// Only the covering segment can hold upds at or before t; later
		// segments' chains are entirely after it.
		h := g.s.segs[i]
		if _, ok := h.firstOld(n); ok {
			for _, a := range g.s.mustIndex(h).updChain(n) {
				if a.At.After(t) {
					return a.Old
				}
			}
		}
		for _, h := range g.s.segs[i+1:] {
			if v, ok := h.firstOld(n); ok {
				return v
			}
		}
	}
	ups := g.s.active.UpdTriples(n)
	if i := sort.Search(len(ups), func(i int) bool { return ups[i].At.After(t) }); i < len(ups) {
		return ups[i].Old
	}
	v, _ := g.Value(n)
	return v
}

// globalSnapshotAt materializes the snapshot at t (which must be at or
// after the last seal) exactly as the monolithic SnapshotAt does: every
// node ever created — live, deleted in the active segment, or deleted in
// sealed history — with its value at t, arcs in global first-insertion
// order filtered by liveness, then garbage collection. Deleted nodes must
// participate before GC because an arc frozen live by a GC'd endpoint can
// keep an otherwise-unreachable node reachable, exactly as in the
// monolithic reconstruction.
func (s *Store) globalSnapshotAt(t timestamp.Time) *oem.Database {
	g := s.Graph()
	out := oem.New()
	if out.Root() != s.active.Root() {
		panic("segment: root id mismatch in snapshot materialization")
	}
	ids := append([]oem.NodeID(nil), s.active.AllNodeIDs()...)
	if len(s.dead) > 0 {
		seen := make(map[oem.NodeID]bool, len(ids))
		for _, id := range ids {
			seen[id] = true
		}
		for id := range s.dead {
			if !seen[id] {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	for _, id := range ids {
		if id == s.active.Root() {
			continue
		}
		if err := out.CreateNodeWithID(id, g.ValueAt(id, t)); err != nil {
			panic(fmt.Sprintf("segment: snapshot node %s: %v", id, err))
		}
	}
	for _, id := range ids {
		for _, arc := range s.registry[id] {
			if g.ArcLiveAt(arc, t) {
				if err := out.AddArc(arc.Parent, arc.Label, arc.Child); err != nil {
					panic(fmt.Sprintf("segment: snapshot arc %s: %v", arc, err))
				}
			}
		}
	}
	out.GarbageCollect()
	return out
}
