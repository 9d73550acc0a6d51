package lorel

import (
	"testing"

	"repro/internal/oem"
	"repro/internal/value"
)

func TestParsePathGroups(t *testing.T) {
	q := mustParse(t, `select guide.(restaurant|cafe).name`)
	pv := q.Select[0].Expr.(*PathValueExpr)
	g := pv.Path.Steps[0].Group
	if g == nil || len(g.Alts) != 2 || g.Quant != 0 {
		t.Fatalf("group = %+v", g)
	}
	q = mustParse(t, `select a.(b.c)*.d`)
	pv = q.Select[0].Expr.(*PathValueExpr)
	if g := pv.Path.Steps[0].Group; g == nil || g.Quant != '*' || len(g.Alts[0]) != 2 {
		t.Fatalf("starred group = %+v", g)
	}
	q = mustParse(t, `select a.(b)+.c`)
	pv = q.Select[0].Expr.(*PathValueExpr)
	if g := pv.Path.Steps[0].Group; g == nil || g.Quant != '+' {
		t.Fatalf("plus group = %+v", g)
	}
	q = mustParse(t, `select a.(b|c.d)?.e`)
	pv = q.Select[0].Expr.(*PathValueExpr)
	if g := pv.Path.Steps[0].Group; g == nil || g.Quant != '?' {
		t.Fatalf("optional group = %+v", g)
	}
	// Rendering round-trips.
	for _, src := range []string{
		`select guide.(restaurant|cafe).name`,
		`select a.(b.c)*.d`,
		`select a.(b|c.d)?.e`,
	} {
		q := mustParse(t, src)
		if _, err := Parse(q.String()); err != nil {
			t.Errorf("group rendering of %q does not re-parse: %v\n%s", src, err, q.String())
		}
	}
}

func TestParsePathGroupErrors(t *testing.T) {
	for _, bad := range []string{
		`select a.()`,
		`select a.(b|)`,
		`select a.(b`,
		`select a.(<add>b)`,
		`select a.<add>(b)`, // annotation on group step
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) succeeded", bad)
		}
	}
}

func TestGroupAlternation(t *testing.T) {
	// guide with both restaurant and cafe children.
	db := newOEMWith(t, func(b *builderT) {
		r := b.complexArc(b.root(), "restaurant")
		b.atomArc(r, "name", value.Str("Janta"))
		c := b.complexArc(b.root(), "cafe")
		b.atomArc(c, "name", value.Str("Blue Bottle"))
		o := b.complexArc(b.root(), "office")
		b.atomArc(o, "name", value.Str("not food"))
	})
	e := NewEngine()
	e.Register("guide", NewOEMGraph(db))
	res, err := e.Query(`select N from guide.(restaurant|cafe).name N`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Fatalf("rows = %d, want 2\n%s", res.Len(), res)
	}
}

func TestGroupKleeneClosure(t *testing.T) {
	// A chain root -> a -> a -> a -> leaf; (a)* reaches every prefix.
	db := newOEMWith(t, func(b *builderT) {
		n1 := b.complexArc(b.root(), "a")
		n2 := b.complexArc(n1, "a")
		n3 := b.complexArc(n2, "a")
		b.atomArc(n3, "leaf", value.Str("end"))
	})
	e := NewEngine()
	e.Register("db", NewOEMGraph(db))
	// Zero or more 'a' steps from the root: root, n1, n2, n3 -> 4 objects.
	res, err := e.Query(`select db.(a)*`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 4 {
		t.Errorf("(a)* rows = %d, want 4\n%s", res.Len(), res)
	}
	// One or more.
	res, err = e.Query(`select db.(a)+`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("(a)+ rows = %d, want 3", res.Len())
	}
	// The classic "leaf at any depth" idiom.
	res, err = e.Query(`select db.(a)*.leaf`)
	if err != nil {
		t.Fatal(err)
	}
	vals := res.Values("leaf")
	if len(vals) != 1 || !vals[0].Equal(value.Str("end")) {
		t.Errorf("leaf values = %v", vals)
	}
}

func TestGroupCycleSafe(t *testing.T) {
	// parking/nearby-eats cycle: closure terminates.
	e, _, _ := paperEngine(t)
	res, err := e.Query(`select guide.restaurant.(parking.nearby-eats)*.name`)
	if err != nil {
		t.Fatal(err)
	}
	// Names of restaurants reachable by alternating parking/nearby-eats:
	// the restaurants themselves plus Bangkok Cuisine via the cycle.
	if res.Len() == 0 {
		t.Fatal("cycle closure returned nothing")
	}
}

func TestGroupOptional(t *testing.T) {
	// address? — both string addresses (no indirection) and the complex
	// address's street: select street values reachable via (address)?.
	e, _, _ := paperEngine(t)
	res, err := e.Query(`select S from guide.restaurant.(address)?.street S`)
	if err != nil {
		t.Fatal(err)
	}
	vals := res.Values("street")
	if len(vals) != 1 || !vals[0].Equal(value.Str("Lytton")) {
		t.Errorf("streets = %v", vals)
	}
}

func TestGroupMultiLabelSequence(t *testing.T) {
	e, pids, _ := paperEngine(t)
	// (parking.nearby-eats) exactly once from Janta... Janta's parking arc
	// was removed; Bangkok's survives and cycles back to Bangkok.
	res, err := e.Query(`select R from guide.restaurant.(parking.nearby-eats) R`)
	if err != nil {
		t.Fatal(err)
	}
	got := res.FirstColumnNodes()
	if len(got) != 1 || got[0] != pids.Bangkok {
		t.Errorf("cycle targets = %v, want [Bangkok]", got)
	}
}

func TestGroupDirectVsSnapshotConsistency(t *testing.T) {
	// Groups over a DOEM database traverse the current snapshot only.
	e, pids, _ := paperEngine(t)
	res, err := e.Query(`select guide.(restaurant)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 3 {
		t.Errorf("grouped restaurant rows = %d, want 3", res.Len())
	}
	_ = pids
}

// --- tiny builder helpers local to this file ---

type builderT struct {
	b *oem.Builder
}

func (t *builderT) root() oem.NodeID { return t.b.Root() }

func (t *builderT) complexArc(p oem.NodeID, l string) oem.NodeID {
	return t.b.ComplexArc(p, l)
}

func (t *builderT) atomArc(p oem.NodeID, l string, v value.Value) oem.NodeID {
	return t.b.AtomArc(p, l, v)
}

func newOEMWith(t *testing.T, fn func(*builderT)) *oem.Database {
	t.Helper()
	bt := &builderT{b: oem.NewBuilder()}
	fn(bt)
	return bt.b.Build()
}

// TestGroupQuotedLabels: a quoted label inside a path group matches
// literally, as a quoted step does — "a%" must not glob onto "ab" —
// renders quoted so the query re-parses, and keys its plans apart from the
// unquoted glob.
func TestGroupQuotedLabels(t *testing.T) {
	db := newOEMWith(t, func(b *builderT) {
		b.atomArc(b.root(), "a%", value.Int(1))
		b.atomArc(b.root(), "ab", value.Int(2))
	})
	for _, g := range []Graph{NewOEMGraph(db), scanGraph{NewOEMGraph(db)}} {
		e := NewEngine()
		e.Register("g", g)
		for q, want := range map[string]int{
			`select X from g."a%" X`:       1,
			`select X from g.("a%") X`:     1,
			`select X from g.("x"|"a%") X`: 1,
			`select X from g.(a%) X`:       2,
		} {
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("%T %s: %v", g, q, err)
			}
			if res.Len() != want {
				t.Errorf("%T %s: %d rows, want %d\n%s", g, q, res.Len(), want, res)
			}
		}
	}

	src := `select X from g.("a b"|"50%".c)* X`
	q := mustParse(t, src)
	if got, want := q.From[0].Path.String(), `g.("a b"|"50%".c)*`; got != want {
		t.Errorf("rendered %s, want %s", got, want)
	}
	again, err := Parse(q.String())
	if err != nil {
		t.Fatalf("rendering of %q does not re-parse: %v\n%s", src, err, q.String())
	}
	if again.String() != q.String() {
		t.Errorf("render round trip changed the query:\n%s\n%s", q, again)
	}

	key := func(src string) string {
		q := mustParse(t, src)
		if err := Canonicalize(q); err != nil {
			t.Fatal(err)
		}
		return canonicalKey(q)
	}
	if key(`select X from g.("a%") X`) == key(`select X from g.(a%) X`) {
		t.Error(`("a%") and (a%) share a plan-cache key`)
	}
}
