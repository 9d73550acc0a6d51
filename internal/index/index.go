// Package index is what remains of the <at T> view memo: a DOEM database
// under its old name. A query reads <at T> from each arc's own add/rem
// annotations (doem.Database.ArcLiveAt), so there is no view to keep, and
// Graph serves every read from the database it embeds. The end-to-end
// benchmark still builds Graphs; the package goes once the benchmark no
// longer does.
package index

import "repro/internal/doem"

// Graph is a DOEM database; every method is the database's own.
type Graph struct {
	*doem.Database
}

// NewGraph returns d as a Graph.
func NewGraph(d *doem.Database) *Graph { return &Graph{Database: d} }

// Invalidate does nothing: Graph keeps no state of its own.
func (g *Graph) Invalidate() {}
