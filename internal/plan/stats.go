package plan

// Stats is the cardinality interface the planner costs plans with. It is
// implemented by doem.Database (from its own per-(node, label) buckets)
// and by segment.DB (from the store's in-memory summaries); graphs without an
// implementation plan against structural defaults, which affects cost
// estimates but never correctness.
//
// StatsVersion must change whenever the answers could: cached plans
// record it at prepare time and re-prepare on mismatch rather than
// executing against stale cardinalities.
type Stats interface {
	StatsVersion() uint64
	NodeCount() int  // nodes ever created
	ArcCount() int   // current-snapshot arcs
	AnnotCount() int // total annotations (may be approximate)
	LabelStats(label string) LabelCard
}

// Totals reads the label-independent statistics of a provider — one call
// each — into a Card; a nil provider yields the zero (unknown) Card. A
// caller costing several generators over one database reads the totals
// once and adds each generator's label with ForLabel.
func Totals(st Stats) Card {
	if st == nil {
		return Card{}
	}
	return Card{
		Known:  true,
		Nodes:  st.NodeCount(),
		Arcs:   st.ArcCount(),
		Annots: st.AnnotCount(),
	}
}

// ForLabel returns c with the per-label cardinalities of label filled in.
// label may be empty for kinds that do not filter by label (subtree, glob,
// group), and c may be the unknown Card; both return c unchanged.
func (c Card) ForLabel(st Stats, label string) Card {
	if c.Known && label != "" {
		c.Label = st.LabelStats(label)
	}
	return c
}

// CardOf fills a Card for one generator from a stats provider.
func CardOf(st Stats, label string) Card {
	return Totals(st).ForLabel(st, label)
}
