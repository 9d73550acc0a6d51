package doem

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/oem"
	"repro/internal/oemio"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// wireDOEM is the exact serialized form of a DOEM database: the current
// snapshot plus the full arc relation, annotations, deleted-node values and
// step timestamps. Unlike the Section 5.1 OEM encoding (package encoding),
// this format preserves node ids exactly, which the lore store and QSS rely
// on across restarts.
type wireDOEM struct {
	Current  json.RawMessage `json:"current"`
	DeadArcs []wireArc       `json:"dead_arcs,omitempty"`
	NodeAnn  []wireNodeAnn   `json:"node_annotations,omitempty"`
	ArcAnn   []wireArcAnn    `json:"arc_annotations,omitempty"`
	Deleted  []wireDeleted   `json:"deleted_nodes,omitempty"`
	Steps    []string        `json:"steps,omitempty"`
	// OutAll order per parent, to keep listings deterministic.
	ArcOrder []wireArc `json:"arc_order,omitempty"`
}

type wireArc struct {
	P uint64 `json:"p"`
	L string `json:"l"`
	C uint64 `json:"c"`
}

type wireNodeAnn struct {
	Node    uint64 `json:"n"`
	Kind    string `json:"k"` // "cre" or "upd"
	At      string `json:"t"`
	OldKind string `json:"ovk,omitempty"`
	OldVal  any    `json:"ov,omitempty"`
}

type wireArcAnn struct {
	Arc  wireArc `json:"a"`
	Kind string  `json:"k"` // "add" or "rem"
	At   string  `json:"t"`
}

type wireDeleted struct {
	Node uint64 `json:"n"`
	Kind string `json:"k"`
	Val  any    `json:"v,omitempty"`
}

func toWireArc(a oem.Arc) wireArc {
	return wireArc{P: uint64(a.Parent), L: a.Label, C: uint64(a.Child)}
}

func fromWireArc(a wireArc) oem.Arc {
	return oem.Arc{Parent: oem.NodeID(a.P), Label: a.L, Child: oem.NodeID(a.C)}
}

// Marshal serializes the database to JSON, preserving node ids and
// annotation order exactly.
func (d *Database) Marshal() ([]byte, error) {
	cur, err := oemio.Marshal(d.current)
	if err != nil {
		return nil, err
	}
	w := wireDOEM{Current: cur}
	for a := range d.dead {
		w.DeadArcs = append(w.DeadArcs, toWireArc(a))
	}
	sortWireArcs(w.DeadArcs)
	for _, id := range d.AllNodeIDs() {
		for _, ann := range d.nodeAnn[id] {
			wa := wireNodeAnn{Node: uint64(id), Kind: ann.Kind.String(), At: ann.At.String()}
			if ann.Kind == AnnotUpd {
				wa.OldKind, wa.OldVal = oemio.EncodeValue(ann.Old)
			}
			w.NodeAnn = append(w.NodeAnn, wa)
		}
		for _, arc := range d.outAll[id] {
			w.ArcOrder = append(w.ArcOrder, toWireArc(arc))
			for _, ann := range d.arcAnn[arc] {
				w.ArcAnn = append(w.ArcAnn, wireArcAnn{Arc: toWireArc(arc), Kind: ann.Kind.String(), At: ann.At.String()})
			}
		}
	}
	for id, v := range d.deletedValues {
		k, val := oemio.EncodeValue(v)
		w.Deleted = append(w.Deleted, wireDeleted{Node: uint64(id), Kind: k, Val: val})
	}
	sort.Slice(w.Deleted, func(i, j int) bool { return w.Deleted[i].Node < w.Deleted[j].Node })
	for _, t := range d.steps {
		w.Steps = append(w.Steps, t.String())
	}
	return json.Marshal(w)
}

func sortWireArcs(arcs []wireArc) {
	sort.Slice(arcs, func(i, j int) bool {
		a, b := arcs[i], arcs[j]
		if a.P != b.P {
			return a.P < b.P
		}
		if a.L != b.L {
			return a.L < b.L
		}
		return a.C < b.C
	})
}

// Unmarshal reconstructs a database serialized by Marshal.
func Unmarshal(data []byte) (*Database, error) {
	var w wireDOEM
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("doem: unmarshal: %w", err)
	}
	cur, err := oemio.Unmarshal(w.Current)
	if err != nil {
		return nil, fmt.Errorf("doem: unmarshal current snapshot: %w", err)
	}
	d := &Database{
		current:       cur,
		outAll:        make(map[oem.NodeID][]oem.Arc),
		dead:          make(map[oem.Arc]bool),
		deletedValues: make(map[oem.NodeID]value.Value),
		nodeAnn:       make(map[oem.NodeID][]NodeAnnot),
		arcAnn:        make(map[oem.Arc][]ArcAnnot),
	}
	for _, wa := range w.ArcOrder {
		a := fromWireArc(wa)
		d.outAll[a.Parent] = append(d.outAll[a.Parent], a)
	}
	for _, wa := range w.DeadArcs {
		d.dead[fromWireArc(wa)] = true
	}
	for _, wn := range w.NodeAnn {
		at, err := timestamp.Parse(wn.At)
		if err != nil {
			return nil, fmt.Errorf("doem: unmarshal annotation time: %w", err)
		}
		ann := NodeAnnot{At: at}
		switch wn.Kind {
		case "cre":
			ann.Kind = AnnotCre
		case "upd":
			ann.Kind = AnnotUpd
			ov, err := oemio.DecodeValue(wn.OldKind, wn.OldVal)
			if err != nil {
				return nil, fmt.Errorf("doem: unmarshal old value: %w", err)
			}
			ann.Old = ov
		default:
			return nil, fmt.Errorf("doem: unknown node annotation kind %q", wn.Kind)
		}
		d.nodeAnn[oem.NodeID(wn.Node)] = append(d.nodeAnn[oem.NodeID(wn.Node)], ann)
	}
	for _, wa := range w.ArcAnn {
		at, err := timestamp.Parse(wa.At)
		if err != nil {
			return nil, fmt.Errorf("doem: unmarshal arc annotation time: %w", err)
		}
		var kind AnnotKind
		switch wa.Kind {
		case "add":
			kind = AnnotAdd
		case "rem":
			kind = AnnotRem
		default:
			return nil, fmt.Errorf("doem: unknown arc annotation kind %q", wa.Kind)
		}
		arc := fromWireArc(wa.Arc)
		d.arcAnn[arc] = append(d.arcAnn[arc], ArcAnnot{Kind: kind, At: at})
	}
	for _, wd := range w.Deleted {
		v, err := oemio.DecodeValue(wd.Kind, wd.Val)
		if err != nil {
			return nil, fmt.Errorf("doem: unmarshal deleted value: %w", err)
		}
		d.deletedValues[oem.NodeID(wd.Node)] = v
		if id := oem.NodeID(wd.Node); id > d.maxID {
			d.maxID = id
		}
	}
	// cur was decoded node by node and never collected, so its high-water
	// mark is its largest id.
	if m := cur.MaxID(); m > d.maxID {
		d.maxID = m
	}
	for _, s := range w.Steps {
		t, err := timestamp.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("doem: unmarshal step time: %w", err)
		}
		d.steps = append(d.steps, t)
	}
	d.index()
	return d, nil
}
