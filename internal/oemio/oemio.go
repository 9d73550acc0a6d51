// Package oemio serializes OEM databases to a cycle-safe JSON wire format.
// The format is flat — a node table and an arc table — so arbitrary graphs
// (shared subobjects, cycles) round-trip exactly, preserving node ids and
// arc insertion order. It is the answer format of the QSS client/server
// protocol and the snapshot interchange format of cmd/oemdiff; no stored
// history uses it (those use the binary encoding of internal/change).
package oemio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// wireDB is the serialized form of an OEM database.
type wireDB struct {
	Root  uint64     `json:"root"`
	Nodes []wireNode `json:"nodes"`
	Arcs  []wireArc  `json:"arcs"`
}

type wireNode struct {
	ID    uint64 `json:"id"`
	Kind  string `json:"kind"`
	Value any    `json:"value,omitempty"`
}

type wireArc struct {
	Parent uint64 `json:"p"`
	Label  string `json:"l"`
	Child  uint64 `json:"c"`
}

// EncodeValue converts a value to its wire representation.
func EncodeValue(v value.Value) (kind string, payload any) {
	switch v.Kind() {
	case value.KindComplex:
		return "complex", nil
	case value.KindNull:
		return "null", nil
	case value.KindBool:
		return "bool", v.AsBool()
	case value.KindInt:
		return "int", v.AsInt()
	case value.KindReal:
		return "real", v.AsReal()
	case value.KindString:
		return "string", v.AsString()
	case value.KindTime:
		return "time", v.AsTime().String()
	default:
		return "null", nil
	}
}

// DecodeValue converts a wire representation back to a value.
func DecodeValue(kind string, payload any) (value.Value, error) {
	switch kind {
	case "complex":
		return value.Complex(), nil
	case "null":
		return value.Null(), nil
	case "bool":
		b, ok := payload.(bool)
		if !ok {
			return value.Value{}, fmt.Errorf("oemio: bool value has payload %T", payload)
		}
		return value.Bool(b), nil
	case "int":
		switch p := payload.(type) {
		case float64:
			return value.Int(int64(p)), nil
		case json.Number:
			i, err := p.Int64()
			if err != nil {
				return value.Value{}, fmt.Errorf("oemio: int value: %v", err)
			}
			return value.Int(i), nil
		case int64:
			return value.Int(p), nil
		default:
			return value.Value{}, fmt.Errorf("oemio: int value has payload %T", payload)
		}
	case "real":
		switch p := payload.(type) {
		case float64:
			return value.Real(p), nil
		case json.Number:
			r, err := p.Float64()
			if err != nil {
				return value.Value{}, fmt.Errorf("oemio: real value: %v", err)
			}
			return value.Real(r), nil
		default:
			return value.Value{}, fmt.Errorf("oemio: real value has payload %T", payload)
		}
	case "string":
		s, ok := payload.(string)
		if !ok {
			return value.Value{}, fmt.Errorf("oemio: string value has payload %T", payload)
		}
		return value.Str(s), nil
	case "time":
		s, ok := payload.(string)
		if !ok {
			return value.Value{}, fmt.Errorf("oemio: time value has payload %T", payload)
		}
		t, err := timestamp.Parse(s)
		if err != nil {
			return value.Value{}, err
		}
		return value.Time(t), nil
	default:
		return value.Value{}, fmt.Errorf("oemio: unknown value kind %q", kind)
	}
}

// Write serializes db as JSON to w.
func Write(w io.Writer, db *oem.Database) error {
	wd := wireDB{Root: uint64(db.Root())}
	for _, id := range db.Nodes() {
		v := db.MustValue(id)
		kind, payload := EncodeValue(v)
		wd.Nodes = append(wd.Nodes, wireNode{ID: uint64(id), Kind: kind, Value: payload})
	}
	for _, a := range db.Arcs() {
		wd.Arcs = append(wd.Arcs, wireArc{Parent: uint64(a.Parent), Label: a.Label, Child: uint64(a.Child)})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(wd)
}

// Read deserializes a database written by Write. Node ids are preserved.
func Read(r io.Reader) (*oem.Database, error) {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	var wd wireDB
	if err := dec.Decode(&wd); err != nil {
		return nil, fmt.Errorf("oemio: %w", err)
	}
	return fromWire(&wd)
}

func fromWire(wd *wireDB) (*oem.Database, error) {
	db := oem.New()
	rootSeen := false
	for _, n := range wd.Nodes {
		v, err := DecodeValue(n.Kind, normalizeNumber(n.Value))
		if err != nil {
			return nil, fmt.Errorf("oemio: node %d: %w", n.ID, err)
		}
		if oem.NodeID(n.ID) == db.Root() {
			// The serialized root reuses the fresh database's root id.
			if !v.IsComplex() {
				return nil, fmt.Errorf("oemio: root node %d is not complex", n.ID)
			}
			rootSeen = true
			continue
		}
		if err := db.CreateNodeWithID(oem.NodeID(n.ID), v); err != nil {
			return nil, fmt.Errorf("oemio: node %d: %w", n.ID, err)
		}
	}
	if uint64(db.Root()) != wd.Root {
		return nil, fmt.Errorf("oemio: root id %d unsupported (must be %d)", wd.Root, db.Root())
	}
	if !rootSeen {
		return nil, fmt.Errorf("oemio: node table missing root %d", wd.Root)
	}
	for _, a := range wd.Arcs {
		if err := db.AddArc(oem.NodeID(a.Parent), a.Label, oem.NodeID(a.Child)); err != nil {
			return nil, fmt.Errorf("oemio: arc: %w", err)
		}
	}
	return db, nil
}

// normalizeNumber unwraps json.Number payloads produced by UseNumber.
func normalizeNumber(v any) any {
	if n, ok := v.(json.Number); ok {
		return n
	}
	return v
}

// Marshal serializes db to a JSON byte slice.
func Marshal(db *oem.Database) ([]byte, error) {
	wd := wireDB{Root: uint64(db.Root())}
	for _, id := range db.Nodes() {
		kind, payload := EncodeValue(db.MustValue(id))
		wd.Nodes = append(wd.Nodes, wireNode{ID: uint64(id), Kind: kind, Value: payload})
	}
	for _, a := range db.Arcs() {
		wd.Arcs = append(wd.Arcs, wireArc{Parent: uint64(a.Parent), Label: a.Label, Child: uint64(a.Child)})
	}
	return json.Marshal(wd)
}

// Unmarshal deserializes a database from a JSON byte slice.
func Unmarshal(data []byte) (*oem.Database, error) {
	return Read(bytes.NewReader(data))
}
