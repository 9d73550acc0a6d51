package lorel

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/oem"
	"repro/internal/value"
)

// Result is the outcome of evaluating a query: a deduplicated sequence of
// rows. Rows reference nodes in the queried graphs; Answer materializes a
// self-contained OEM database in the paper's "answer object" style.
type Result struct {
	Rows []Row
}

// Row is one result tuple.
type Row struct {
	Cells []Cell
}

// Cell is one labeled column of a row: either a graph object or an atomic
// value (e.g. an annotation timestamp).
type Cell struct {
	Label string
	b     binding
}

// IsNode reports whether the cell holds a graph object.
func (c Cell) IsNode() bool { return c.b.kind == bNode }

// IsNull reports whether the cell is null (an empty existential binding).
func (c Cell) IsNull() bool { return c.b.kind == bNull }

// Node returns the object id for node cells.
func (c Cell) Node() oem.NodeID { return c.b.id }

// Graph returns the graph the cell's node belongs to.
func (c Cell) Graph() Graph { return c.b.g }

// Value returns the value the cell denotes: the atomic value itself, or the
// (possibly time-travelled) value of the node.
func (c Cell) Value() (value.Value, bool) { return c.b.valueOf() }

// appendKey appends the row's dedup key to dst, reusing dst's capacity so
// hot dedup loops can probe the seen-set without allocating per row. Every
// component is length-prefixed so labels or rendered values containing the
// join punctuation of adjacent components cannot make two distinct rows
// collide.
func (r Row) appendKey(dst []byte) []byte {
	var kb [64]byte
	for _, c := range r.Cells {
		k := c.b.appendKey(kb[:0])
		dst = strconv.AppendInt(dst, int64(len(c.Label)), 10)
		dst = append(dst, ':')
		dst = append(dst, c.Label...)
		dst = strconv.AppendInt(dst, int64(len(k)), 10)
		dst = append(dst, ':')
		dst = append(dst, k...)
	}
	return dst
}

// Cell returns the first cell with the given label.
func (r Row) Cell(label string) (Cell, bool) {
	for _, c := range r.Cells {
		if c.Label == label {
			return c, true
		}
	}
	return Cell{}, false
}

// Len returns the number of rows.
func (res *Result) Len() int { return len(res.Rows) }

// Nodes returns the object ids in the given column across all rows.
func (res *Result) Nodes(label string) []oem.NodeID {
	var ids []oem.NodeID
	for _, row := range res.Rows {
		if c, ok := row.Cell(label); ok && c.IsNode() {
			ids = append(ids, c.Node())
		}
	}
	return ids
}

// Values returns the values in the given column across all rows.
func (res *Result) Values(label string) []value.Value {
	var vs []value.Value
	for _, row := range res.Rows {
		if c, ok := row.Cell(label); ok {
			if v, okv := c.Value(); okv {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

// FirstColumnNodes returns the node ids of the first column — the common
// single-projection case ("select guide.restaurant").
func (res *Result) FirstColumnNodes() []oem.NodeID {
	var ids []oem.NodeID
	for _, row := range res.Rows {
		if len(row.Cells) > 0 && row.Cells[0].IsNode() {
			ids = append(ids, row.Cells[0].Node())
		}
	}
	return ids
}

// String renders the result as a small table for display.
func (res *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d row(s)\n", len(res.Rows))
	for _, row := range res.Rows {
		for i, c := range row.Cells {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Label)
			b.WriteString(": ")
			b.WriteString(c.describe())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (c Cell) describe() string {
	switch c.b.kind {
	case bNull:
		return "null"
	case bValue:
		return c.b.val.String()
	default:
		v, ok := c.Value()
		if !ok {
			return c.b.id.String()
		}
		if v.IsComplex() {
			return c.b.id.String() + "{...}"
		}
		return v.String()
	}
}

// Answer materializes the result as an OEM database rooted at an "answer"
// object, in the style of the paper's Example 4.4: one child per row; rows
// with a single column attach the object or value directly under its label,
// multi-column rows become complex objects with one labeled child per cell.
// Node cells copy the current-snapshot subobject closure of the node.
func (res *Result) Answer() *oem.Database {
	out := oem.New()
	for _, row := range res.Rows {
		var parent oem.NodeID
		if len(row.Cells) == 1 {
			parent = out.Root()
		} else {
			p := out.CreateNode(value.Complex())
			mustAdd(out, out.Root(), "answer", p)
			parent = p
		}
		for _, c := range row.Cells {
			label := c.Label
			if label == "" {
				label = "value"
			}
			switch c.b.kind {
			case bNull:
				continue
			case bValue:
				n := out.CreateNode(c.b.val)
				mustAdd(out, parent, label, n)
			case bNode:
				copied := copyNodeInto(out, c.b)
				mustAdd(out, parent, label, copied)
			}
		}
	}
	return out
}

// copyNodeInto copies the subobject closure of a bound node into dst and
// returns the copy's id. Traversal respects the binding's time-travel
// instant when present.
func copyNodeInto(dst *oem.Database, b binding) oem.NodeID {
	remap := make(map[oem.NodeID]oem.NodeID)
	g := b.g
	var copyNode func(n oem.NodeID) oem.NodeID
	copyNode = func(n oem.NodeID) oem.NodeID {
		if id, ok := remap[n]; ok {
			return id
		}
		var v value.Value
		if b.hasAsOf {
			v = g.ValueAt(n, b.asOf)
		} else {
			v, _ = g.Value(n)
		}
		id := dst.CreateNode(v)
		remap[n] = id
		var arcs []oem.Arc
		if b.hasAsOf {
			for _, a := range g.OutAll(n) {
				if g.ArcLiveAt(a, b.asOf) {
					arcs = append(arcs, a)
				}
			}
		} else {
			arcs = g.Out(n)
		}
		for _, a := range arcs {
			child := copyNode(a.Child)
			mustAdd(dst, id, a.Label, child)
		}
		return id
	}
	return copyNode(b.id)
}

func mustAdd(db *oem.Database, p oem.NodeID, l string, c oem.NodeID) {
	if err := db.AddArc(p, l, c); err != nil {
		panic(fmt.Sprintf("lorel: answer construction: %v", err))
	}
}
