package doem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/change"
	"repro/internal/oem"
)

// The stored form of a DOEM database. Section 3.2 shows that a feasible
// DOEM database D is D(O_0(D), H(D)), so the pair is all that is stored,
// in the one binary encoding of internal/change:
//
//	change.AppendSet(O_0) | uvarint len(H) | change.AppendStep ...
//
// O_0 is written as the change set that builds it from oem.New(), the
// empty database R_0 every history starts from: a creNode for every
// object but the root in id order, an updNode on the root when its value
// is not complex, then an addArc for every arc in oem.Arcs() order (parent
// ascending, each parent's insertion order). Decoding applies the set in
// written order, which is what keeps each parent's arc order; any other
// operation is corrupt.
//
// A sealed segment file (internal/segment) carries the same pair for its
// interval. The pair preserves node ids, and replaying it rebuilds every
// annotation, the OutAll order and the step times; decoding replays it
// through Apply, so every decoded step has passed the Section 2.1 checks.

// maxDecodeCount caps a decoded step count, so a corrupt length prefix
// cannot demand a huge allocation (the bound internal/change uses).
const maxDecodeCount = 1 << 24

// AppendHistory appends the pair (o, h) to dst. It writes the bytes
// change.AppendSet would for O_0's set without building the set.
func AppendHistory(dst []byte, o *oem.Database, h change.History) []byte {
	nodes, arcs := o.Nodes(), o.Arcs()
	root := o.Root()
	rootValue := o.MustValue(root)
	count := len(nodes) - 1 + len(arcs)
	if !rootValue.IsComplex() {
		count++
	}
	dst = binary.AppendUvarint(dst, uint64(count))
	for _, n := range nodes {
		if n != root {
			dst = change.AppendOp(dst, change.CreNode{Node: n, Value: o.MustValue(n)})
		}
	}
	if !rootValue.IsComplex() {
		dst = change.AppendOp(dst, change.UpdNode{Node: root, Value: rootValue})
	}
	for _, a := range arcs {
		dst = change.AppendOp(dst, change.AddArc{Parent: a.Parent, Label: a.Label, Child: a.Child})
	}
	dst = binary.AppendUvarint(dst, uint64(len(h)))
	for _, step := range h {
		dst = change.AppendStep(dst, step)
	}
	return dst
}

// DecodeHistory decodes a pair written by AppendHistory from the front of
// data and returns it with the number of bytes read. It checks the
// encoding only; FromHistory checks the history.
func DecodeHistory(data []byte) (*oem.Database, change.History, int, error) {
	// The older layout led with the length of a JSON O_0. A set that is
	// not empty leads with an opcode, never '{'.
	if c, n := binary.Uvarint(data); n > 0 && c > 0 && n < len(data) && data[n] == '{' {
		return nil, nil, 0, fmt.Errorf("%w: O_0 is JSON, the layout of an older version, which is no longer read", change.ErrCorrupt)
	}
	set, off, err := change.DecodeSet(data)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("O_0: %w", err)
	}
	o, err := buildOriginal(set)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: O_0: %v", change.ErrCorrupt, err)
	}
	count, n := binary.Uvarint(data[off:])
	if n <= 0 || count > maxDecodeCount {
		return nil, nil, 0, fmt.Errorf("%w: step count", change.ErrCorrupt)
	}
	off += n
	// Every step takes at least one byte, which bounds the allocation by
	// the input.
	h := make(change.History, 0, min(count, uint64(len(data)-off)))
	for i := uint64(0); i < count; i++ {
		step, n, err := change.DecodeStep(data[off:])
		if err != nil {
			return nil, nil, 0, fmt.Errorf("step %d: %w", i, err)
		}
		off += n
		h = append(h, step)
	}
	return o, h, off, nil
}

// buildOriginal applies the set AppendHistory writes for O_0 to oem.New(),
// in written order and without reordering it into a canonical set, which
// would lose each parent's arc order.
func buildOriginal(set change.Set) (*oem.Database, error) {
	o := oem.New()
	for _, op := range set {
		var err error
		switch op := op.(type) {
		case change.CreNode:
			if op.Node == o.Root() {
				return nil, fmt.Errorf("creNode(%s) makes a second root", op.Node)
			}
			err = o.CreateNodeWithID(op.Node, op.Value)
		case change.UpdNode:
			if op.Node != o.Root() {
				return nil, fmt.Errorf("%s is not on the root", op)
			}
			err = o.UpdateNode(op.Node, op.Value)
		case change.AddArc:
			err = o.AddArc(op.Parent, op.Label, op.Child)
		default:
			return nil, fmt.Errorf("%s does not build a database", op)
		}
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// Append appends the stored form of d to dst: O_0(D), then one step per
// entry of Steps(), a step that left no annotation as an empty set. A
// database without annotations is its current snapshot, so it is written
// as O_0 without materializing one.
func Append(dst []byte, d *Database) []byte {
	o := d.current
	if d.annots > 0 {
		o = d.Original()
	}
	return AppendHistory(dst, o, d.history())
}

// Decode decodes a database written by Append from the front of data and
// returns it with the number of bytes read. The history must apply to O_0
// step by step (FromHistory). When it changes anything, O_0 must be an OEM
// database whose every object the root reaches, as O_0(D) always is; a
// database without annotations is stored as its current snapshot, which
// may hold objects nothing reaches.
func Decode(data []byte) (*Database, int, error) {
	o, h, n, err := DecodeHistory(data)
	if err != nil {
		return nil, 0, fmt.Errorf("doem: decode: %w", err)
	}
	for _, step := range h {
		if len(step.Ops) > 0 {
			if err := o.Validate(); err != nil {
				return nil, 0, fmt.Errorf("doem: decode: O_0: %w", err)
			}
			break
		}
	}
	d, err := replay(wrap(o), h)
	if err != nil {
		return nil, 0, fmt.Errorf("doem: decode: %w", err)
	}
	return d, n, nil
}

// history returns H(D) with one step per entry of Steps(): the steps of
// ExtractHistory, and an empty set at each step time that carries no
// annotation.
func (d *Database) history() change.History {
	ext := d.ExtractHistory()
	h := make(change.History, len(d.steps))
	j := 0
	for i, t := range d.steps {
		h[i].At = t
		if j < len(ext) && ext[j].At.Equal(t) {
			h[i].Ops = ext[j].Ops
			j++
		}
	}
	return h
}
