package lorel

import (
	"strconv"
	"strings"

	"repro/internal/timestamp"
	"repro/internal/value"
)

// Parse parses a Lorel or Chorel query. The result is not yet canonicalized;
// call Canonicalize (or use Engine.Query, which does both).
func Parse(src string) (*Query, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	q, err := p.parseQuery()
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, errf(p.peek().pos, "unexpected %s after query", p.peek())
	}
	return q, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) peek2() token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

// keyword reports whether the current token is the given case-insensitive
// keyword identifier.
func (p *parser) keyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) acceptKeyword(kw string) bool {
	if p.keyword(kw) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind) (token, error) {
	t := p.peek()
	if t.kind != kind {
		return token{}, errf(t.pos, "expected %s, found %s", kind, t)
	}
	p.pos++
	return t, nil
}

// reserved words that terminate a path or cannot be range variables.
var reservedWords = map[string]bool{
	"select": true, "from": true, "where": true, "and": true, "or": true,
	"not": true, "exists": true, "in": true, "like": true, "as": true,
}

func isReserved(s string) bool { return reservedWords[strings.ToLower(s)] }

// aggFuncs are the aggregate function names.
var aggFuncs = map[string]bool{
	"count": true, "min": true, "max": true, "sum": true, "avg": true,
}

// annotation keywords recognized after '<' in a path step.
var annotWords = map[string]AnnotOp{
	"add": OpAdd, "rem": OpRem, "cre": OpCre, "upd": OpUpd, "at": OpAt,
}

func (p *parser) parseQuery() (*Query, error) {
	if !p.acceptKeyword("select") {
		return nil, errf(p.peek().pos, "expected 'select', found %s", p.peek())
	}
	q := &Query{}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		q.Select = append(q.Select, item)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	if p.acceptKeyword("from") {
		for {
			item, err := p.parseFromItem()
			if err != nil {
				return nil, err
			}
			q.From = append(q.From, item)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}
	if p.acceptKeyword("where") {
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		q.Where = e
	}
	return q, nil
}

func (p *parser) parseSelectItem() (SelectItem, error) {
	e, err := p.parseAdd()
	if err != nil {
		return SelectItem{}, err
	}
	item := SelectItem{Expr: e}
	if p.acceptKeyword("as") {
		t, err := p.expect(tokIdent)
		if err != nil {
			return SelectItem{}, err
		}
		item.Label = t.text
	}
	return item, nil
}

func (p *parser) parseFromItem() (FromItem, error) {
	t := p.peek()
	if t.kind != tokIdent || isReserved(t.text) {
		return FromItem{}, errf(t.pos, "expected path expression, found %s", t)
	}
	path, err := p.parsePath()
	if err != nil {
		return FromItem{}, err
	}
	item := FromItem{Path: path}
	// Optional range variable: a following non-reserved identifier.
	if nt := p.peek(); nt.kind == tokIdent && !isReserved(nt.text) {
		item.Var = nt.text
		p.next()
	}
	return item, nil
}

// parsePath parses head(.step)*, where each step may carry annotation
// expressions.
func (p *parser) parsePath() (*PathExpr, error) {
	head, err := p.expect(tokIdent)
	if err != nil {
		return nil, err
	}
	path := &PathExpr{Head: head.text, P: head.pos}
	for p.peek().kind == tokDot {
		p.next()
		step, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		path.Steps = append(path.Steps, step)
	}
	return path, nil
}

func (p *parser) parseStep() (*PathStep, error) {
	step := &PathStep{P: p.peek().pos}
	// Optional arc annotation before the label.
	if p.peek().kind == tokLAngle {
		if ann, ok, err := p.tryParseAnnot(true); err != nil {
			return nil, err
		} else if ok {
			step.Arc = ann
		}
	}
	t := p.next()
	switch t.kind {
	case tokIdent:
		step.Label = t.text
	case tokString:
		step.Label = t.text
		step.Quoted = true
	case tokHash:
		step.Hash = true
	case tokLParen:
		g, err := p.parseGroup()
		if err != nil {
			return nil, err
		}
		step.Group = g
	default:
		return nil, errf(t.pos, "expected arc label, found %s", t)
	}
	// Optional node annotation after the label.
	if p.peek().kind == tokLAngle {
		if ann, ok, err := p.tryParseAnnot(false); err != nil {
			return nil, err
		} else if ok {
			step.Node = ann
		}
	}
	if step.Hash && (step.Arc != nil || step.Node != nil) {
		return nil, errf(step.P, "annotation expressions on '#' wildcards are not supported")
	}
	if step.Group != nil && (step.Arc != nil || step.Node != nil) {
		return nil, errf(step.P, "annotation expressions on path groups are not supported")
	}
	return step, nil
}

// parseGroup parses a regular path group after its opening '(':
// label sequences separated by '|', a closing ')', and an optional
// quantifier (*, + or ?).
func (p *parser) parseGroup() (*PathGroup, error) {
	g := &PathGroup{}
	for {
		var seq []GroupLabel
		for {
			t := p.peek()
			if t.kind != tokIdent && t.kind != tokString {
				return nil, errf(t.pos, "expected label in path group, found %s", t)
			}
			p.next()
			seq = append(seq, GroupLabel{Label: t.text, Quoted: t.kind == tokString})
			if p.peek().kind != tokDot {
				break
			}
			p.next()
		}
		g.Alts = append(g.Alts, seq)
		if p.peek().kind == tokPipe {
			p.next()
			continue
		}
		break
	}
	if _, err := p.expect(tokRParen); err != nil {
		return nil, err
	}
	switch p.peek().kind {
	case tokStar:
		g.Quant = '*'
		p.next()
	case tokPlus:
		g.Quant = '+'
		p.next()
	case tokQuestion:
		g.Quant = '?'
		p.next()
	}
	return g, nil
}

// tryParseAnnot parses an annotation expression if the '<' is followed by an
// annotation keyword; otherwise it consumes nothing and returns ok=false
// (the '<' is a comparison operator). arcPos selects which operators are
// legal: add/rem (and virtual at) before a label, cre/upd (and virtual at)
// after one.
func (p *parser) tryParseAnnot(arcPos bool) (*AnnotExpr, bool, error) {
	nt := p.peek2()
	if nt.kind != tokIdent {
		return nil, false, nil
	}
	op, isAnnot := annotWords[strings.ToLower(nt.text)]
	if !isAnnot {
		return nil, false, nil
	}
	open := p.next() // consume '<'
	p.next()         // consume the keyword
	ann := &AnnotExpr{Op: op, P: open.pos}
	switch op {
	case OpAt:
		e, err := p.parseAdd()
		if err != nil {
			return nil, false, err
		}
		ann.AtExpr = e
	case OpAdd, OpRem, OpCre:
		if !arcPos && (op == OpAdd || op == OpRem) {
			return nil, false, errf(open.pos, "%s annotation must precede an arc label", op)
		}
		if arcPos && op == OpCre {
			return nil, false, errf(open.pos, "cre annotation must follow a label")
		}
		if p.acceptKeyword("at") {
			v, err := p.expect(tokIdent)
			if err != nil {
				return nil, false, err
			}
			ann.AtVar = v.text
		}
	case OpUpd:
		if arcPos {
			return nil, false, errf(open.pos, "upd annotation must follow a label")
		}
		if p.acceptKeyword("at") {
			v, err := p.expect(tokIdent)
			if err != nil {
				return nil, false, err
			}
			ann.AtVar = v.text
		}
		if p.acceptKeyword("from") {
			v, err := p.expect(tokIdent)
			if err != nil {
				return nil, false, err
			}
			ann.FromVar = v.text
		}
		if p.acceptKeyword("to") {
			v, err := p.expect(tokIdent)
			if err != nil {
				return nil, false, err
			}
			ann.ToVar = v.text
		}
	}
	if _, err := p.expect(tokRAngle); err != nil {
		return nil, false, err
	}
	return ann, true, nil
}

// Boolean expression grammar.

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.keyword("or") {
		pos := p.next().pos
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "or", L: l, R: r, P: pos}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.keyword("and") {
		pos := p.next().pos
		r, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: "and", L: l, R: r, P: pos}
	}
	return l, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.keyword("not") {
		pos := p.next().pos
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e, P: pos}, nil
	}
	if p.keyword("exists") {
		pos := p.next().pos
		v, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		if !p.acceptKeyword("in") {
			return nil, errf(p.peek().pos, "expected 'in' in exists, found %s", p.peek())
		}
		path, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokColon); err != nil {
			return nil, err
		}
		cond, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &ExistsExpr{Var: v.text, In: path, Cond: cond, P: pos}, nil
	}
	return p.parseComparison()
}

var cmpOps = map[tokenKind]string{
	tokEq: "=", tokNeq: "!=", tokLAngle: "<", tokRAngle: ">",
	tokLeq: "<=", tokGeq: ">=",
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdd()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if op, ok := cmpOps[t.kind]; ok {
		p.next()
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: op, L: l, R: r, P: t.pos}, nil
	}
	if p.keyword("like") {
		pos := p.next().pos
		r, err := p.parseAdd()
		if err != nil {
			return nil, err
		}
		return &BinExpr{Op: "like", L: l, R: r, P: pos}, nil
	}
	return l, nil
}

func (p *parser) parseAdd() (Expr, error) {
	l, err := p.parseMul()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op string
		switch t.kind {
		case tokPlus:
			op = "+"
		case tokMinus:
			op = "-"
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseMul()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r, P: t.pos}
	}
}

func (p *parser) parseMul() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		var op string
		switch t.kind {
		case tokStar:
			op = "*"
		case tokSlash:
			op = "/"
		default:
			return l, nil
		}
		p.next()
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinExpr{Op: op, L: l, R: r, P: t.pos}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.peek()
	switch t.kind {
	case tokMinus:
		p.next()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold constant negation.
		if c, ok := e.(*ConstExpr); ok {
			switch c.Val.Kind() {
			case value.KindInt:
				return &ConstExpr{Val: value.Int(-c.Val.AsInt()), P: t.pos}, nil
			case value.KindReal:
				return &ConstExpr{Val: value.Real(-c.Val.AsReal()), P: t.pos}, nil
			}
		}
		return &BinExpr{Op: "-", L: &ConstExpr{Val: value.Int(0), P: t.pos}, R: e, P: t.pos}, nil
	case tokLParen:
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen); err != nil {
			return nil, err
		}
		return e, nil
	case tokInt:
		p.next()
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, errf(t.pos, "bad integer %q", t.text)
		}
		return &ConstExpr{Val: value.Int(i), P: t.pos}, nil
	case tokReal:
		p.next()
		r, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, errf(t.pos, "bad real %q", t.text)
		}
		return &ConstExpr{Val: value.Real(r), P: t.pos}, nil
	case tokTime:
		p.next()
		ts, err := timestamp.Parse(t.text)
		if err != nil {
			return nil, errf(t.pos, "bad timestamp %q", t.text)
		}
		return &ConstExpr{Val: value.Time(ts), P: t.pos}, nil
	case tokString:
		p.next()
		return &ConstExpr{Val: value.Str(t.text), P: t.pos}, nil
	case tokIdent:
		// t[i] polling-time reference (QSS, Section 6).
		if t.text == "t" && p.peek2().kind == tokLBracket {
			p.next()
			p.next() // '['
			neg := false
			if p.peek().kind == tokMinus {
				neg = true
				p.next()
			}
			it, err := p.expect(tokInt)
			if err != nil {
				return nil, err
			}
			idx, err := strconv.Atoi(it.text)
			if err != nil {
				return nil, errf(it.pos, "bad index %q", it.text)
			}
			if neg {
				idx = -idx
			}
			if _, err := p.expect(tokRBracket); err != nil {
				return nil, err
			}
			return &TimeRefExpr{Index: idx, P: t.pos}, nil
		}
		if isReserved(t.text) {
			return nil, errf(t.pos, "unexpected keyword %q", t.text)
		}
		// Aggregate call: count(path), min(path), ...
		if aggFuncs[strings.ToLower(t.text)] && p.peek2().kind == tokLParen {
			fn := strings.ToLower(t.text)
			p.next() // ident
			p.next() // '('
			path, err := p.parsePath()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokRParen); err != nil {
				return nil, err
			}
			return &AggExpr{Fn: fn, Path: path, P: t.pos}, nil
		}
		// Boolean literals.
		switch strings.ToLower(t.text) {
		case "true":
			p.next()
			return &ConstExpr{Val: value.Bool(true), P: t.pos}, nil
		case "false":
			p.next()
			return &ConstExpr{Val: value.Bool(false), P: t.pos}, nil
		case "null":
			p.next()
			return &ConstExpr{Val: value.Null(), P: t.pos}, nil
		}
		path, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		return &PathValueExpr{Path: path}, nil
	}
	return nil, errf(t.pos, "unexpected %s", t)
}
