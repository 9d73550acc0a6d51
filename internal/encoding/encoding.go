// Package encoding implements the paper's Section 5.1 scheme for encoding a
// DOEM database as a plain OEM database, so that Chorel queries can be
// answered by a standard Lorel engine (the paper's "on top of Lore"
// implementation strategy).
//
// For each DOEM object o there is an encoding object o' with subobjects:
//
//	&val        the current value (atomic objects), or o' itself (complex)
//	&cre        the cre(t) timestamp, if any
//	&upd        one complex child per upd(t, ov) annotation, with
//	            &time, &ov and &nv children (&nv is materialized even
//	            though it is derivable, for efficiency of translation)
//	l           one arc per *current-snapshot* arc (o, l, p)
//	&l-history  one complex child per arc (o, l, p) ever present, holding
//	            &target plus one &add / &rem timestamp child per annotation
//
// Labels used by the encoding start with '&' to keep them disjoint from
// data labels.
package encoding

import (
	"fmt"
	"strings"

	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// Prefix is the reserved label prefix of the encoding.
const Prefix = "&"

// Reserved encoding labels.
const (
	LabelVal    = "&val"
	LabelCre    = "&cre"
	LabelUpd    = "&upd"
	LabelTime   = "&time"
	LabelOV     = "&ov"
	LabelNV     = "&nv"
	LabelTarget = "&target"
	LabelAdd    = "&add"
	LabelRem    = "&rem"
)

// HistoryLabel returns the &l-history label for a data label l.
func HistoryLabel(l string) string { return "&" + l + "-history" }

// DataLabel inverts HistoryLabel; ok is false for non-history labels.
func DataLabel(histLabel string) (string, bool) {
	if strings.HasPrefix(histLabel, "&") && strings.HasSuffix(histLabel, "-history") {
		return histLabel[1 : len(histLabel)-len("-history")], true
	}
	return "", false
}

// Encoding is the result of encoding a DOEM database: the OEM encoding plus
// the correspondence between DOEM objects and their encoding objects.
type Encoding struct {
	DB *oem.Database
	// Fwd maps each DOEM node to its encoding node o'.
	Fwd map[oem.NodeID]oem.NodeID
	// Rev maps each encoding node o' back to its DOEM node.
	Rev map[oem.NodeID]oem.NodeID
}

// Encode builds the OEM encoding of d. The encoding's root encodes d's root.
func Encode(d *doem.Database) *Encoding {
	out := oem.New()
	enc := &Encoding{
		DB:  out,
		Fwd: make(map[oem.NodeID]oem.NodeID),
		Rev: make(map[oem.NodeID]oem.NodeID),
	}

	// Collect every node ever present: current ones plus targets/sources of
	// retained removed arcs (deleted nodes stay reachable via history arcs).
	ids := allDOEMNodes(d)

	// Pass 1: allocate encoding objects. Every encoding object is complex
	// (atomic values move into &val children).
	for _, id := range ids {
		var eid oem.NodeID
		if id == d.Root() {
			eid = out.Root()
		} else {
			eid = out.CreateNode(value.Complex())
		}
		enc.Fwd[id] = eid
		enc.Rev[eid] = id
	}

	// Pass 2: per-object structure.
	for _, id := range ids {
		eid := enc.Fwd[id]
		v, _ := d.Value(id)

		// &val: atomic objects get an atomic child; complex objects point
		// to themselves (paper Section 5.1).
		if v.IsComplex() {
			mustAdd(out, eid, LabelVal, eid)
		} else {
			av := out.CreateNode(v)
			mustAdd(out, eid, LabelVal, av)
		}

		// &cre.
		if ct, ok := d.CreTime(id); ok {
			cn := out.CreateNode(value.Time(ct))
			mustAdd(out, eid, LabelCre, cn)
		}

		// &upd, one complex child per annotation, with &time, &ov, &nv.
		for _, u := range d.UpdTriplesIn(id, timestamp.NegInf, timestamp.PosInf) {
			un := out.CreateNode(value.Complex())
			mustAdd(out, eid, LabelUpd, un)
			tn := out.CreateNode(value.Time(u.At))
			mustAdd(out, un, LabelTime, tn)
			ov := out.CreateNode(u.Old)
			mustAdd(out, un, LabelOV, ov)
			nv := out.CreateNode(u.New)
			mustAdd(out, un, LabelNV, nv)
		}

		// Arcs: current-snapshot arcs keep their label; every arc ever gets
		// an &l-history object.
		current := make(map[oem.Arc]bool)
		for _, a := range d.Out(id) {
			current[a] = true
			mustAdd(out, eid, a.Label, enc.Fwd[a.Child])
		}
		for _, a := range d.OutAll(id) {
			hn := out.CreateNode(value.Complex())
			mustAdd(out, eid, HistoryLabel(a.Label), hn)
			mustAdd(out, hn, LabelTarget, enc.Fwd[a.Child])
			for _, ann := range d.ArcAnnotsIn(a, timestamp.NegInf, timestamp.PosInf) {
				var l string
				if ann.Kind == doem.AnnotAdd {
					l = LabelAdd
				} else {
					l = LabelRem
				}
				tn := out.CreateNode(value.Time(ann.At))
				mustAdd(out, hn, l, tn)
			}
		}
	}
	return enc
}

func allDOEMNodes(d *doem.Database) []oem.NodeID {
	seen := make(map[oem.NodeID]bool)
	var ids []oem.NodeID
	add := func(id oem.NodeID) {
		if !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	// Reachability over the *full* graph (live + removed arcs) from the root.
	stack := []oem.NodeID{d.Root()}
	add(d.Root())
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, a := range d.OutAll(n) {
			if !seen[a.Child] {
				add(a.Child)
				stack = append(stack, a.Child)
			}
		}
	}
	return ids
}

func mustAdd(db *oem.Database, p oem.NodeID, l string, c oem.NodeID) {
	if err := db.AddArc(p, l, c); err != nil {
		panic(fmt.Sprintf("encoding: %v", err))
	}
}

// Stats summarizes encoding overhead for the B7 experiment.
type Stats struct {
	DOEMNodes   int
	DOEMArcs    int // arcs in the full DOEM graph (live + removed)
	Annotations int
	EncNodes    int
	EncArcs     int
}

// NodeFactor returns encoded nodes per DOEM node.
func (s Stats) NodeFactor() float64 { return float64(s.EncNodes) / float64(s.DOEMNodes) }

// ArcFactor returns encoded arcs per DOEM arc.
func (s Stats) ArcFactor() float64 { return float64(s.EncArcs) / float64(s.DOEMArcs) }

// Measure computes the overhead statistics for d and its encoding.
func Measure(d *doem.Database, e *Encoding) Stats {
	nodes := allDOEMNodes(d)
	arcs := 0
	for _, id := range nodes {
		arcs += len(d.OutAll(id))
	}
	return Stats{
		DOEMNodes:   len(nodes),
		DOEMArcs:    arcs,
		Annotations: d.NumAnnotations(),
		EncNodes:    e.DB.NumNodes(),
		EncArcs:     e.DB.NumArcs(),
	}
}
