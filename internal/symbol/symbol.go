// Package symbol is a process-wide interner for arc labels and other
// string atoms: it maps each distinct string to a single canonical backing
// string.
//
// Two things fall out of canonicalization. First, every store layer
// (oem adjacency, doem full-arc relation, segment registries) holds the
// same backing bytes for a given label no matter how many times it was
// decoded from a WAL, a wire frame, or a segment file — a graph with a
// small label alphabet shrinks to one allocation per distinct label.
// Second, comparing two canonical strings hits the runtime's
// pointer-equality fast path in string ==, so hot-path label comparisons
// on match are word compares instead of byte scans: the evaluator resolves
// a path step's label to its canonical string once per walk and compares
// it against each arc's label.
//
// Interning is an in-memory representation only. Wire formats, WAL
// encoding and segment files always carry strings; interning happens at
// load/apply time (oem.AddArc, doem.Apply, segment replay), so
// replication byte-parity and on-disk compatibility are untouched.
//
// Concurrency: the table is a sync.Map, so lookups and hits take no lock.
// It is append-only and process-wide — it is never reset, and its size is
// bounded by the number of distinct labels the process has loaded.
package symbol

import (
	"strings"
	"sync"
)

// table maps each interned string to itself; keys and values are the
// canonical strings.
var table sync.Map

// Canon returns the canonical backing string for s, interning it on first
// sight. The canonical string is a clone, so holding it never pins a
// caller's larger backing array. Store layers call this on every label
// they record.
func Canon(s string) string {
	if c, ok := table.Load(s); ok {
		return c.(string)
	}
	c := strings.Clone(s)
	v, _ := table.LoadOrStore(c, c)
	return v.(string)
}

// Lookup returns the canonical string for s without inserting. A miss
// means no data loaded so far ever interned s.
func Lookup(s string) (string, bool) {
	if c, ok := table.Load(s); ok {
		return c.(string), true
	}
	return "", false
}
