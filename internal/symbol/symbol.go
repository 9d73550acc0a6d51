// Package symbol is a process-wide interned symbol table for arc labels
// and other string atoms: it maps each distinct string to a dense integer
// id and a single canonical backing string.
//
// Two things fall out of canonicalization. First, every store layer
// (oem adjacency, doem full-arc relation, segment registries) holds the
// same backing bytes for a given label no matter how many times it was
// decoded from a WAL, a wire frame, or a segment file — a graph with a
// small label alphabet shrinks to one allocation per distinct label.
// Second, comparing two canonical strings hits the runtime's
// pointer-equality fast path in string ==, so hot-path label comparisons
// on match are word compares instead of byte scans.
//
// The dense ids exist for map keys: internal/index keys its per-(node,
// label) adjacency maps by (NodeID, ID) — a fixed 12-byte comparable —
// instead of hashing string keys, and the evaluator resolves a path
// step's label to an id once per walk instead of once per binding.
//
// Symbols are an in-memory representation only. Wire formats, WAL
// encoding and segment files always carry strings; interning happens at
// load/apply time (oem.AddArc, doem.Apply, segment replay), so
// replication byte-parity and on-disk compatibility are untouched.
//
// Concurrency: lookups and hits are lock-free (sync.Map); only the first
// interning of a new string takes the table lock. The table is
// append-only and process-wide — it is never reset, and its size is
// bounded by the number of distinct labels the process has loaded.
package symbol

import (
	"strings"
	"sync"
)

// ID is a dense interned-symbol identifier. The zero value None never
// identifies a symbol.
type ID uint32

// None is the invalid ID.
const None ID = 0

type entry struct {
	id ID
	s  string // the canonical backing string
}

var (
	table sync.Map // string -> entry; keys are the canonical strings
	mu    sync.RWMutex
	strs  = []string{""} // ID -> canonical string; index 0 reserved for None
)

// Intern returns the dense id and canonical backing string for s,
// inserting it on first sight. The canonical string is a clone, so
// holding it never pins a caller's larger backing array. The id is never
// None.
func Intern(s string) (ID, string) {
	if e, ok := table.Load(s); ok {
		en := e.(entry)
		return en.id, en.s
	}
	mu.Lock()
	defer mu.Unlock()
	if e, ok := table.Load(s); ok {
		en := e.(entry)
		return en.id, en.s
	}
	if uint64(len(strs)) > uint64(^ID(0)) {
		// 2^32 distinct labels would need hundreds of GiB for their strings
		// and table entries alone; no process reaches this in practice.
		panic("symbol: table full (2^32 distinct symbols)")
	}
	c := strings.Clone(s)
	id := ID(len(strs))
	strs = append(strs, c)
	table.Store(c, entry{id: id, s: c})
	return id, c
}

// Lookup returns the id for s without inserting. A miss means no data
// loaded so far ever interned s — for sym-keyed indexes built over
// interned data, a miss proves the label matches nothing.
func Lookup(s string) (ID, bool) {
	if e, ok := table.Load(s); ok {
		return e.(entry).id, true
	}
	return None, false
}

// Canon returns the canonical backing string for s, interning it. Store
// layers call this on every label they record.
func Canon(s string) string {
	_, c := Intern(s)
	return c
}

// String returns the canonical string for id, or "" when id is None or
// unknown.
func String(id ID) string {
	mu.RLock()
	defer mu.RUnlock()
	if int(id) >= len(strs) {
		return ""
	}
	return strs[id]
}

// Size returns the number of interned symbols.
func Size() int {
	mu.RLock()
	defer mu.RUnlock()
	return len(strs) - 1
}
