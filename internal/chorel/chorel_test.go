package chorel

import (
	"errors"
	"sort"
	"strings"
	"testing"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
)

func paperDB(t testing.TB) (*DB, *guidegen.PaperIDs) {
	t.Helper()
	o, ids := guidegen.PaperGuide()
	d, err := doem.FromHistory(o, guidegen.PaperHistory(ids))
	if err != nil {
		t.Fatal(err)
	}
	return New("guide", d), ids
}

func sortedIDs(ids []oem.NodeID) []oem.NodeID {
	out := append([]oem.NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []oem.NodeID) bool {
	a, b = sortedIDs(a), sortedIDs(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// equivalenceQueries are Chorel queries whose direct and translated
// evaluations must agree on the paper database. The first select column is
// compared (as DOEM node ids for object columns, values otherwise).
var equivalenceQueries = []string{
	`select guide.restaurant`,
	`select guide.restaurant where guide.restaurant.price < 20.5`,
	`select guide.<add>restaurant`,
	`select guide.<add at T>restaurant where T < 4Jan97`,
	`select guide.<rem at T>parking`,
	`select guide.restaurant.<rem at T>parking`,
	`select guide.restaurant<cre at T> where T > 31Dec96`,
	`select N from guide.restaurant R, R.name N where R.<add at T>price = "moderate" and T >= 1Jan97`,
	`select N, T, NV from guide.restaurant.price<upd at T to NV>, guide.restaurant.name N where T >= 1Jan97 and NV > 15`,
	`select OV from guide.restaurant.price<upd from OV>`,
	`select N from guide.restaurant R, R.name N where exists P in R.price : P = 20`,
	`select N from guide.restaurant R, R.name N where R.cuisine = "Thai"`,
	`select guide.restaurant.parking.comment`,
	`select R from guide.restaurant R where R.name like "%kata"`,
	`select guide.(restaurant|cafe).name`,
	`select guide.restaurant.(parking.nearby-eats)*.name`,
}

// TestDirectVsTranslatedEquivalence runs every equivalence query through
// both strategies and compares results — the core check that the Section 5
// implementation is faithful to the Section 4 semantics.
func TestDirectVsTranslatedEquivalence(t *testing.T) {
	db, _ := paperDB(t)
	for _, src := range equivalenceQueries {
		direct, err := db.Query(src)
		if err != nil {
			t.Errorf("direct %q: %v", src, err)
			continue
		}
		trans, err := db.QueryTranslated(src)
		if err != nil {
			t.Errorf("translated %q: %v", src, err)
			continue
		}
		if direct.Len() != trans.Len() {
			t.Errorf("%q: direct %d rows, translated %d rows\ndirect:\n%s\ntranslated:\n%s",
				src, direct.Len(), trans.Len(), direct, trans)
			continue
		}
		// Compare first column: node columns map through the encoding.
		dn := direct.FirstColumnNodes()
		tn := db.MapToDOEM(trans.FirstColumnNodes())
		if !equalIDs(dn, tn) {
			t.Errorf("%q: node columns differ: direct %v, translated %v", src, dn, tn)
		}
		// Compare value columns (e.g. annotation variables).
		if len(direct.Rows) > 0 {
			for _, cell := range direct.Rows[0].Cells {
				if cell.IsNode() {
					continue
				}
				dv := direct.Values(cell.Label)
				tv := trans.Values(cell.Label)
				if len(dv) != len(tv) {
					t.Errorf("%q column %q: %d vs %d values", src, cell.Label, len(dv), len(tv))
				}
			}
		}
	}
}

// TestTranslationExample51 checks that translating the paper's Example 4.5
// query produces the structure of Example 5.1: &price-history, &target,
// &add, and &val accesses.
func TestTranslationExample51(t *testing.T) {
	src := `select N from guide.restaurant R, R.name N
		where R.<add at T>price = "moderate" and T >= 1Jan97`
	out, err := TranslateString(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"&price-history", "&target", "&add", "&val", "exists"} {
		if !strings.Contains(out, want) {
			t.Errorf("translated query missing %q:\n%s", want, out)
		}
	}
	// The translated text itself must parse as a valid query.
	if _, err := lorel.Parse(out); err != nil {
		t.Errorf("translated text does not re-parse: %v\n%s", err, out)
	}
	// And it must contain no annotation expressions.
	q, _ := lorel.Parse(out)
	if q.HasAnnotations() {
		t.Error("translated query still contains annotation expressions")
	}
}

// TestTranslatedTextExecutes runs the rendered translation end-to-end on
// the encoding and checks it finds the same answer as the direct path for
// Example 4.4.
func TestTranslatedTextExecutes(t *testing.T) {
	db, _ := paperDB(t)
	src := `select N, T, NV from guide.restaurant.price<upd at T to NV>, guide.restaurant.name N
		where T >= 1Jan97 and NV > 15`
	text, err := TranslateString(src)
	if err != nil {
		t.Fatal(err)
	}
	eng := lorel.NewEngine()
	eng.Register("guide", lorel.NewOEMGraph(db.Encoding().DB))
	res, err := eng.Query(text)
	if err != nil {
		t.Fatalf("executing translated text: %v\n%s", err, text)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1\n%s\n%s", res.Len(), text, res)
	}
	// The name column holds the encoding object of the name atom; its value
	// is complex, so read its &val.
	vals := res.Values("new-value")
	if len(vals) != 1 || !vals[0].Equal(value.Int(20)) {
		t.Errorf("new-value = %v, want [20]", vals)
	}
}

// TestUpdTranslation checks the updFun replacement of Section 5.2.
func TestUpdTranslation(t *testing.T) {
	out, err := TranslateString(`select T, OV, NV from guide.restaurant.price<upd at T from OV to NV>`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"&upd", "&time", "&ov", "&nv"} {
		if !strings.Contains(out, want) {
			t.Errorf("upd translation missing %q:\n%s", want, out)
		}
	}
}

func TestCreTranslation(t *testing.T) {
	out, err := TranslateString(`select guide.restaurant<cre at T> where T > 31Dec96`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "&cre") {
		t.Errorf("cre translation missing &cre:\n%s", out)
	}
}

func TestUntranslatableConstructs(t *testing.T) {
	cases := []string{
		`select guide.#`,
		`select guide.<at 4Jan97>restaurant`,
		`select guide.restaurant.price<at 4Jan97>`,
	}
	for _, src := range cases {
		if _, err := TranslateString(src); !errors.Is(err, ErrUntranslatable) {
			t.Errorf("%q: err = %v, want ErrUntranslatable", src, err)
		}
	}
}

func TestValueAccessGetsVal(t *testing.T) {
	out, err := TranslateString(`select R from guide.restaurant R where R.price < 20.5`)
	if err != nil {
		t.Fatal(err)
	}
	// The price variable compared against 20.5 must be accessed via &val.
	if !strings.Contains(out, "&val") {
		t.Errorf("value access not rewritten to &val:\n%s", out)
	}
	// The select clause requests the object; the select item must NOT be a
	// &val access.
	if strings.Contains(strings.SplitN(out, "from", 2)[0], "&val") {
		t.Errorf("select-clause object access wrongly rewritten:\n%s", out)
	}
}

// TestQueryAfterApplyInvalidate: applying a change through the DB
// re-encodes.
func TestQueryAfterApplyInvalidate(t *testing.T) {
	db, ids := paperDB(t)
	// Initially one restaurant has an add annotation.
	res, err := db.QueryTranslated(`select guide.<add>restaurant`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d, want 1", res.Len())
	}
	// Extend history: add another restaurant.
	newRest := oem.NodeID(600)
	if err := db.Apply(guidegen.T3.Add(86400e9), changeSetForTest(newRest, ids.Guide)); err != nil {
		t.Fatal(err)
	}
	res, err = db.QueryTranslated(`select guide.<add>restaurant`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("after apply+invalidate rows = %d, want 2", res.Len())
	}
	// Direct path sees it immediately.
	res, err = db.Query(`select guide.<add>restaurant`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 2 {
		t.Errorf("direct rows = %d, want 2", res.Len())
	}
}

func TestPollTimesForwarded(t *testing.T) {
	db, _ := paperDB(t)
	db.SetPollTimes(nil)
	res, err := db.Query(`select guide.restaurant<cre at T> where T > t[-1]`)
	if err != nil {
		t.Fatal(err)
	}
	// t[-1] = -inf with no polls: every created restaurant matches.
	if res.Len() != 1 {
		t.Errorf("rows = %d, want 1", res.Len())
	}
}

// TestTranslatedQueriesSeePollTimes: polling times installed before the
// encoding exists, and kept across an Apply that discards it, reach the
// translation engine, so t[-i] means the same on both strategies.
func TestTranslatedQueriesSeePollTimes(t *testing.T) {
	db, ids := paperDB(t)
	day := guidegen.T3.Add(86400e9)
	db.SetPollTimes([]timestamp.Time{guidegen.T3, day})
	const q = `select guide.restaurant<cre at T> where T > t[-1]`
	agree := func(when string) {
		t.Helper()
		direct, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		trans, err := db.QueryTranslated(q)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Len() != 0 || trans.Len() != direct.Len() {
			t.Errorf("%s: direct = %d rows, translated = %d rows, want 0 and 0", when, direct.Len(), trans.Len())
		}
	}
	agree("before any apply")
	if err := db.Apply(day, change.Set{change.UpdNode{Node: ids.Price, Value: value.Int(30)}}); err != nil {
		t.Fatal(err)
	}
	agree("after apply")
}

func TestRenderTranslatedNoGens(t *testing.T) {
	q, err := lorel.Parse(`select guide.restaurant`)
	if err != nil {
		t.Fatal(err)
	}
	if err := lorel.Canonicalize(q); err != nil {
		t.Fatal(err)
	}
	tq, err := Translate(q)
	if err != nil {
		t.Fatal(err)
	}
	out := RenderTranslated(tq)
	if strings.Contains(out, "exists") {
		t.Errorf("no-where query rendered with exists: %s", out)
	}
	if _, err := lorel.Parse(out); err != nil {
		t.Errorf("rendered query unparseable: %v\n%s", err, out)
	}
}

// TestAnswerWithHistory: a selected object arrives with its &-encoded
// history (the paper's end-of-Section-5.2 remark).
func TestAnswerWithHistory(t *testing.T) {
	db, _ := paperDB(t)
	res, err := db.Query(`select N from guide.restaurant R, R.name N where R.price<upd> > 15`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 {
		t.Fatalf("rows = %d", res.Len())
	}
	ans := db.AnswerWithHistory(res)
	if err := ans.Validate(); err != nil {
		t.Fatalf("answer invalid: %v", err)
	}
	names := ans.OutLabeled(ans.Root(), "name")
	if len(names) != 1 {
		t.Fatalf("name children = %d", len(names))
	}
	nameObj := names[0].Child
	// The name object carries &val with the current value...
	vals := ans.OutLabeled(nameObj, "&val")
	if len(vals) != 1 || !ans.MustValue(vals[0].Child).Equal(value.Str("Bangkok Cuisine")) {
		t.Error("&val missing or wrong on delivered object")
	}
	// ...and a mixed-cells answer wraps rows in complex objects.
	res, err = db.Query(`select N, T from guide.restaurant R, R.name N, R.price<upd at T>`)
	if err != nil {
		t.Fatal(err)
	}
	ans = db.AnswerWithHistory(res)
	rows := ans.OutLabeled(ans.Root(), "answer")
	if len(rows) != 1 {
		t.Fatalf("answer rows = %d", len(rows))
	}
	if len(ans.OutLabeled(rows[0].Child, "update-time")) != 1 {
		t.Error("value cell missing from history answer")
	}
}

// TestAnswerWithHistoryCarriesUpdTrail: selecting the price object itself
// delivers its upd history.
func TestAnswerWithHistoryCarriesUpdTrail(t *testing.T) {
	db, _ := paperDB(t)
	res, err := db.Query(`select P from guide.restaurant.price P where P > 15`)
	if err != nil {
		t.Fatal(err)
	}
	ans := db.AnswerWithHistory(res)
	prices := ans.OutLabeled(ans.Root(), "price")
	if len(prices) != 1 {
		t.Fatalf("price children = %d", len(prices))
	}
	p := prices[0].Child
	upds := ans.OutLabeled(p, "&upd")
	if len(upds) != 1 {
		t.Fatalf("&upd children = %d, want 1 (the 10 -> 20 update)", len(upds))
	}
	ovs := ans.OutLabeled(upds[0].Child, "&ov")
	if len(ovs) != 1 || !ans.MustValue(ovs[0].Child).Equal(value.Int(10)) {
		t.Error("old value missing from delivered history")
	}
}
