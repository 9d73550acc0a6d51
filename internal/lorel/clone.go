package lorel

// Deep copies of AST nodes, used wherever a parsed artifact must survive
// the in-place rewriting that canonicalization performs (e.g. compiling an
// update statement more than once).

// cloneExpr deep-copies an expression tree. nil yields nil.
func cloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *ConstExpr:
		c := *x
		return &c
	case *TimeRefExpr:
		c := *x
		return &c
	case *PathValueExpr:
		return &PathValueExpr{Path: clonePath(x.Path)}
	case *BinExpr:
		return &BinExpr{Op: x.Op, L: cloneExpr(x.L), R: cloneExpr(x.R), P: x.P}
	case *NotExpr:
		return &NotExpr{E: cloneExpr(x.E), P: x.P}
	case *ExistsExpr:
		return &ExistsExpr{Var: x.Var, In: clonePath(x.In), Cond: cloneExpr(x.Cond), P: x.P}
	case *AggExpr:
		return &AggExpr{Fn: x.Fn, Path: clonePath(x.Path), P: x.P}
	default:
		return e
	}
}

// clonePath deep-copies a path expression.
func clonePath(p *PathExpr) *PathExpr {
	if p == nil {
		return nil
	}
	c := &PathExpr{Head: p.Head, P: p.P}
	for _, s := range p.Steps {
		cs := &PathStep{Label: s.Label, Hash: s.Hash, Quoted: s.Quoted, P: s.P}
		if s.Group != nil {
			g := &PathGroup{Quant: s.Group.Quant}
			for _, alt := range s.Group.Alts {
				g.Alts = append(g.Alts, append([]GroupLabel(nil), alt...))
			}
			cs.Group = g
		}
		if s.Arc != nil {
			cs.Arc = cloneAnnot(s.Arc)
		}
		if s.Node != nil {
			cs.Node = cloneAnnot(s.Node)
		}
		c.Steps = append(c.Steps, cs)
	}
	return c
}

func cloneAnnot(a *AnnotExpr) *AnnotExpr {
	c := &AnnotExpr{Op: a.Op, AtVar: a.AtVar, FromVar: a.FromVar, ToVar: a.ToVar, P: a.P}
	if a.AtExpr != nil {
		c.AtExpr = cloneExpr(a.AtExpr)
	}
	return c
}
