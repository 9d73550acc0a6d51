package lorel

import (
	"fmt"
	"strings"

	"repro/internal/value"
)

// Query is a parsed select-from-where query. Lorel queries and Chorel
// queries share this AST; a Chorel query is one whose path expressions
// contain annotation expressions (paper Section 4.2).
type Query struct {
	Select []SelectItem
	From   []FromItem
	Where  Expr // nil when absent
	// WhereGens holds generators hoisted out of the where clause by
	// canonicalization (paper Section 4.2.1: variables introduced in the
	// where clause are existentially quantified). They bind their variable
	// to null when the path has no matches, so disjunctions still work.
	WhereGens []FromItem

	// key is the injective plan-cache key, set by Canonicalize (and by
	// Rekey for queries built programmatically, e.g. chorel translation).
	// Empty means the query never went through canonicalization and the
	// planner must stand aside.
	key string
}

// SelectItem is one projection of the select clause.
type SelectItem struct {
	Expr  Expr
	Label string // output label; filled by the canonicalizer if empty
}

// FromItem is one range-variable definition of the from clause.
type FromItem struct {
	Path *PathExpr
	Var  string // range variable; filled by the canonicalizer if empty
}

// PathExpr is a (possibly annotated) path expression: a head name followed
// by steps. The head resolves to a bound variable if one is in scope, and
// otherwise to a registered database root.
type PathExpr struct {
	Head  string
	Steps []*PathStep
	P     int
}

// PathStep is one ".label" step, optionally carrying an arc annotation
// expression (before the label) and a node annotation expression (after).
// A step may instead be a regular path group ("(a.b|c)*", Lorel's general
// path expressions), in which case Group is set and the other label fields
// are unused.
type PathStep struct {
	Label  string // arc label; may contain '%' globs unless Quoted
	Hash   bool   // true for the '#' wildcard (any path of length >= 0)
	Quoted bool   // label came from a quoted string: match literally
	Group  *PathGroup
	Arc    *AnnotExpr
	Node   *AnnotExpr
	P      int
}

// PathGroup is a regular path-expression group: a set of label-sequence
// alternatives with an optional quantifier. "(parking.nearby-eats)*"
// matches zero or more repetitions; "(restaurant|cafe)" matches either
// label once.
type PathGroup struct {
	// Alts holds the alternative label sequences.
	Alts [][]GroupLabel
	// Quant is 0 (exactly once), '*' (zero or more), '+' (one or more),
	// or '?' (zero or one).
	Quant byte
}

// GroupLabel is one label of a path-group alternative.
type GroupLabel struct {
	Label  string // may contain '%' globs unless Quoted
	Quoted bool   // label came from a quoted string: match literally
}

// String renders the group in query syntax.
func (g *PathGroup) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, alt := range g.Alts {
		if i > 0 {
			b.WriteByte('|')
		}
		for j, l := range alt {
			if j > 0 {
				b.WriteByte('.')
			}
			if l.Quoted {
				fmt.Fprintf(&b, "%q", l.Label)
			} else {
				b.WriteString(l.Label)
			}
		}
	}
	b.WriteByte(')')
	if g.Quant != 0 {
		b.WriteByte(g.Quant)
	}
	return b.String()
}

// AnnotOp identifies an annotation expression form.
type AnnotOp uint8

// Annotation expression operators. OpAt is the paper's Section 4.2.2
// "virtual annotation" — time travel to a snapshot.
const (
	OpAdd AnnotOp = iota
	OpRem
	OpCre
	OpUpd
	OpAt
)

// String returns the keyword of the operator.
func (op AnnotOp) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpRem:
		return "rem"
	case OpCre:
		return "cre"
	case OpUpd:
		return "upd"
	case OpAt:
		return "at"
	default:
		return fmt.Sprintf("AnnotOp(%d)", uint8(op))
	}
}

// AnnotExpr is an annotation expression: <add at T>, <rem at T>, <cre at T>,
// <upd at T from OV to NV>, or the virtual <at T>.
type AnnotExpr struct {
	Op      AnnotOp
	AtVar   string // time variable for add/rem/cre/upd ("" if none)
	FromVar string // upd only
	ToVar   string // upd only
	AtExpr  Expr   // OpAt only: the time operand (variable or literal)
	P       int
}

// Expr is a boolean, arithmetic, or object-denoting expression.
type Expr interface {
	exprNode()
	Pos() int
	String() string
}

// ConstExpr is a literal value.
type ConstExpr struct {
	Val value.Value
	P   int
}

// PathValueExpr is a path (or bare variable: a path with no steps) used as
// a value or object set.
type PathValueExpr struct {
	Path *PathExpr
}

// BinExpr is a binary operation: comparison ("=", "!=", "<", "<=", ">",
// ">=", "like"), logical ("and", "or"), or arithmetic ("+", "-", "*", "/").
type BinExpr struct {
	Op   string
	L, R Expr
	P    int
}

// NotExpr is logical negation.
type NotExpr struct {
	E Expr
	P int
}

// ExistsExpr is "exists V in path : cond".
type ExistsExpr struct {
	Var  string
	In   *PathExpr
	Cond Expr
	P    int
}

// TimeRefExpr is the QSS polling-time reference t[0], t[-1], ... of paper
// Section 6.
type TimeRefExpr struct {
	Index int
	P     int
}

// AggExpr is an aggregate over the matches of a path expression, evaluated
// per tuple: count(path), min(path), max(path), sum(path), avg(path).
// Lorel's aggregation, specialized to path arguments.
type AggExpr struct {
	Fn   string // count, min, max, sum, avg
	Path *PathExpr
	P    int
}

func (*AggExpr) exprNode()       {}
func (*ConstExpr) exprNode()     {}
func (*PathValueExpr) exprNode() {}
func (*BinExpr) exprNode()       {}
func (*NotExpr) exprNode()       {}
func (*ExistsExpr) exprNode()    {}
func (*TimeRefExpr) exprNode()   {}

// Pos returns the byte offset of the expression in the query text.
func (e *AggExpr) Pos() int       { return e.P }
func (e *ConstExpr) Pos() int     { return e.P }
func (e *PathValueExpr) Pos() int { return e.Path.P }
func (e *BinExpr) Pos() int       { return e.P }
func (e *NotExpr) Pos() int       { return e.P }
func (e *ExistsExpr) Pos() int    { return e.P }
func (e *TimeRefExpr) Pos() int   { return e.P }

func (e *AggExpr) String() string { return fmt.Sprintf("%s(%s)", e.Fn, e.Path) }

func (e *ConstExpr) String() string { return e.Val.String() }

func (e *PathValueExpr) String() string { return e.Path.String() }

func (e *BinExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

func (e *NotExpr) String() string { return fmt.Sprintf("not %s", e.E) }

func (e *ExistsExpr) String() string {
	return fmt.Sprintf("exists %s in %s : %s", e.Var, e.In, e.Cond)
}

func (e *TimeRefExpr) String() string { return fmt.Sprintf("t[%d]", e.Index) }

// String renders the path in query syntax.
func (p *PathExpr) String() string {
	var b strings.Builder
	b.WriteString(p.Head)
	for _, s := range p.Steps {
		b.WriteByte('.')
		if s.Arc != nil {
			b.WriteString(s.Arc.String())
		}
		switch {
		case s.Group != nil:
			b.WriteString(s.Group.String())
		case s.Hash:
			b.WriteByte('#')
		case s.Quoted:
			fmt.Fprintf(&b, "%q", s.Label)
		default:
			b.WriteString(s.Label)
		}
		if s.Node != nil {
			b.WriteString(s.Node.String())
		}
	}
	return b.String()
}

// String renders the annotation expression in query syntax.
func (a *AnnotExpr) String() string {
	var b strings.Builder
	b.WriteByte('<')
	if a.Op == OpAt {
		fmt.Fprintf(&b, "at %s", a.AtExpr)
	} else {
		b.WriteString(a.Op.String())
		if a.AtVar != "" {
			fmt.Fprintf(&b, " at %s", a.AtVar)
		}
		if a.FromVar != "" {
			fmt.Fprintf(&b, " from %s", a.FromVar)
		}
		if a.ToVar != "" {
			fmt.Fprintf(&b, " to %s", a.ToVar)
		}
	}
	b.WriteByte('>')
	return b.String()
}

// String renders the query in parseable syntax.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("select ")
	for i, s := range q.Select {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.Expr.String())
		if s.Label != "" {
			fmt.Fprintf(&b, " as %s", s.Label)
		}
	}
	if len(q.From) > 0 {
		b.WriteString(" from ")
		for i, f := range q.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Path.String())
			if f.Var != "" {
				b.WriteByte(' ')
				b.WriteString(f.Var)
			}
		}
	}
	if q.Where != nil {
		fmt.Fprintf(&b, " where %s", q.Where)
	}
	return b.String()
}

// HasAnnotations reports whether the query uses Chorel annotation
// expressions anywhere (making it a Chorel rather than plain Lorel query).
func (q *Query) HasAnnotations() bool {
	found := false
	q.walkPaths(func(p *PathExpr) {
		for _, s := range p.Steps {
			if s.Arc != nil || s.Node != nil {
				found = true
			}
		}
	})
	return found
}

// WalkPaths visits every path expression in the query, including hoisted
// generators and expression-embedded paths.
func (q *Query) WalkPaths(fn func(*PathExpr)) { q.walkPaths(fn) }

// walkPaths visits every path expression in the query.
func (q *Query) walkPaths(fn func(*PathExpr)) {
	for _, s := range q.Select {
		walkExprPaths(s.Expr, fn)
	}
	for _, f := range q.From {
		fn(f.Path)
	}
	for _, f := range q.WhereGens {
		fn(f.Path)
	}
	if q.Where != nil {
		walkExprPaths(q.Where, fn)
	}
}

func walkExprPaths(e Expr, fn func(*PathExpr)) {
	switch x := e.(type) {
	case *PathValueExpr:
		fn(x.Path)
	case *AggExpr:
		fn(x.Path)
	case *BinExpr:
		walkExprPaths(x.L, fn)
		walkExprPaths(x.R, fn)
	case *NotExpr:
		walkExprPaths(x.E, fn)
	case *ExistsExpr:
		fn(x.In)
		walkExprPaths(x.Cond, fn)
	}
}
