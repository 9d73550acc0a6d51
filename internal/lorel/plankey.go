package lorel

import "strconv"

// canonicalKey serializes a canonicalized query into the plan-cache key.
// The encoding is injective by construction — every node carries a type
// tag and every string is length-prefixed — so two queries with different
// canonical ASTs can never share a key (and therefore never share a
// prepared plan; FuzzPlanCacheKey hunts for violations). Query.String()
// is NOT usable here: it omits WhereGens and renders values without their
// kinds.
func canonicalKey(q *Query) string {
	b := make([]byte, 0, 128)
	b = append(b, 'Q')
	b = strconv.AppendInt(b, int64(len(q.Select)), 10)
	for _, s := range q.Select {
		b = keyExpr(b, s.Expr)
		b = keyStr(b, s.Label)
	}
	b = keyGens(b, q.From)
	b = keyGens(b, q.WhereGens)
	b = keyExpr(b, q.Where)
	return string(b)
}

func keyGens(b []byte, gens []FromItem) []byte {
	b = append(b, 'F')
	b = strconv.AppendInt(b, int64(len(gens)), 10)
	for _, f := range gens {
		b = keyStr(b, f.Var)
		b = keyPath(b, f.Path)
	}
	return b
}

func keyStr(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	return append(b, s...)
}

func keyExpr(b []byte, e Expr) []byte {
	switch x := e.(type) {
	case nil:
		return append(b, 'Z')
	case *ConstExpr:
		b = append(b, 'C')
		b = strconv.AppendInt(b, int64(x.Val.Kind()), 10)
		return keyStr(b, x.Val.String())
	case *TimeRefExpr:
		b = append(b, 'T')
		return strconv.AppendInt(b, int64(x.Index), 10)
	case *PathValueExpr:
		b = append(b, 'P')
		return keyPath(b, x.Path)
	case *BinExpr:
		b = append(b, 'B')
		b = keyStr(b, x.Op)
		b = keyExpr(b, x.L)
		return keyExpr(b, x.R)
	case *NotExpr:
		b = append(b, 'N')
		return keyExpr(b, x.E)
	case *ExistsExpr:
		b = append(b, 'E')
		b = keyStr(b, x.Var)
		b = keyPath(b, x.In)
		return keyExpr(b, x.Cond)
	case *AggExpr:
		b = append(b, 'A')
		b = keyStr(b, x.Fn)
		return keyPath(b, x.Path)
	}
	// Unknown node type: poison the key so it never matches anything.
	return append(b, '?')
}

func keyPath(b []byte, p *PathExpr) []byte {
	b = append(b, 'p')
	b = keyStr(b, p.Head)
	b = strconv.AppendInt(b, int64(len(p.Steps)), 10)
	for _, s := range p.Steps {
		flags := byte('0')
		if s.Hash {
			flags |= 1
		}
		if s.Quoted {
			flags |= 2
		}
		b = append(b, flags)
		b = keyStr(b, s.Label)
		if s.Group != nil {
			b = append(b, 'g')
			b = strconv.AppendInt(b, int64(len(s.Group.Alts)), 10)
			for _, alt := range s.Group.Alts {
				b = strconv.AppendInt(b, int64(len(alt)), 10)
				for _, l := range alt {
					quoted := byte('0')
					if l.Quoted {
						quoted = '1'
					}
					b = append(b, quoted)
					b = keyStr(b, l.Label)
				}
			}
			b = append(b, s.Group.Quant)
		}
		b = keyAnnot(b, 'a', s.Arc)
		b = keyAnnot(b, 'n', s.Node)
	}
	return b
}

func keyAnnot(b []byte, tag byte, a *AnnotExpr) []byte {
	if a == nil {
		return append(b, '-')
	}
	b = append(b, tag)
	b = strconv.AppendInt(b, int64(a.Op), 10)
	b = keyStr(b, a.AtVar)
	b = keyStr(b, a.FromVar)
	b = keyStr(b, a.ToVar)
	return keyExpr(b, a.AtExpr)
}
