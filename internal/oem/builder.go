package oem

import (
	"fmt"

	"repro/internal/value"
)

// Builder constructs OEM databases fluently. It panics on misuse (adding an
// arc from an atomic node, referring to an undefined name), which keeps test
// and example data construction terse; programmatic mutation should use the
// Database methods directly and handle errors.
type Builder struct {
	db    *Database
	named map[string]NodeID
}

// NewBuilder returns a builder over a fresh database.
func NewBuilder() *Builder {
	return &Builder{db: New(), named: make(map[string]NodeID)}
}

// Root returns the database root id.
func (b *Builder) Root() NodeID { return b.db.Root() }

// Complex creates a complex object and remembers it under name (if non-empty).
func (b *Builder) Complex(name string) NodeID {
	id := b.db.CreateNode(value.Complex())
	b.remember(name, id)
	return id
}

// Atom creates an atomic object with the given value and remembers it under
// name (if non-empty).
func (b *Builder) Atom(name string, v value.Value) NodeID {
	if v.IsComplex() {
		panic("oem: Builder.Atom with complex value")
	}
	id := b.db.CreateNode(v)
	b.remember(name, id)
	return id
}

func (b *Builder) remember(name string, id NodeID) {
	if name == "" {
		return
	}
	if _, dup := b.named[name]; dup {
		panic(fmt.Sprintf("oem: Builder name %q reused", name))
	}
	b.named[name] = id
}

// Named returns the node previously remembered under name.
func (b *Builder) Named(name string) NodeID {
	id, ok := b.named[name]
	if !ok {
		panic(fmt.Sprintf("oem: Builder name %q not defined", name))
	}
	return id
}

// Arc adds an l-labeled arc from p to c.
func (b *Builder) Arc(p NodeID, l string, c NodeID) *Builder {
	if err := b.db.AddArc(p, l, c); err != nil {
		panic(err)
	}
	return b
}

// AtomArc creates an atomic child with value v under p via label l and
// returns its id.
func (b *Builder) AtomArc(p NodeID, l string, v value.Value) NodeID {
	c := b.Atom("", v)
	b.Arc(p, l, c)
	return c
}

// ComplexArc creates a complex child under p via label l and returns its id.
func (b *Builder) ComplexArc(p NodeID, l string) NodeID {
	c := b.Complex("")
	b.Arc(p, l, c)
	return c
}

// Build validates and returns the database. The builder must not be used
// afterwards.
func (b *Builder) Build() *Database {
	if err := b.db.Validate(); err != nil {
		panic(err)
	}
	db := b.db
	b.db = nil
	return db
}
