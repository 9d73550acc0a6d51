package chorel

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/doem"
	"repro/internal/guidegen"
)

// historyDB builds an indexed DB over a randomly evolved guide.
func historyDB(t testing.TB) *DB {
	t.Helper()
	initial, h := guidegen.GenerateHistory(7, 60, 20, 12)
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		t.Fatal(err)
	}
	return New("guide", d)
}

// TestSharedDBConcurrentCallers is the shape the end-to-end benchmark runs:
// two callers on one DB, each issuing the nine query_history classes.
// Environment frames, walkers and dedup scratch belong to an evaluation,
// never to the engine, so under -race the callers must not meet and every
// result must equal the serial one byte for byte.
func TestSharedDBConcurrentCallers(t *testing.T) {
	db := historyDB(t)
	db.Encoding() // built lazily; callers share it read-only, as in the benchmark
	classes := []struct{ class, text string }{
		{"cre", `select N from guide.restaurant<cre at T> R, R.name N where T > "1997-01-05T00:00:00Z"`},
		{"upd", `select N, T, NV from guide.restaurant R, R.name N, R.price<upd at T to NV> where T > "1997-01-03T00:00:00Z" and NV > 10`},
		{"add", `select N, T from guide.restaurant R, R.name N, R.<add at T>comment C where T > "1997-01-05T00:00:00Z"`},
		{"at_hot", `select P from guide.<at "1997-01-10T00:00:00Z">restaurant.price P where P < 30`},
		{"at_cold", `select P from guide.<at "1997-01-04T12:00:00Z">restaurant.price P where P < 30`},
		{"join", `select N from guide.restaurant R, R.name N, R.cuisine C, R.price P where C = "thai" and P < 30`},
		{"agg", `select count(guide.restaurant.comment)`},
		{"exists", `select N from guide.restaurant R, R.name N where exists P in R.price : P > 20`},
		{"xlate", `select N, T, NV from guide.restaurant R, R.name N, R.price<upd at T to NV> where T > "1997-01-03T00:00:00Z" and NV > 10`},
	}
	run := func(class, text string) (string, error) {
		query := db.Query
		if class == "xlate" {
			query = db.QueryTranslated
		}
		res, err := query(text)
		if err != nil {
			return "", err
		}
		return res.String(), nil
	}
	want := make([]string, len(classes))
	rows := 0
	for i, c := range classes {
		out, err := run(c.class, c.text)
		if err != nil {
			t.Fatalf("%s: %v", c.class, err)
		}
		want[i] = out
		rows += strings.Count(out, "\n")
	}
	if rows < len(classes) {
		t.Fatalf("serial runs returned %d lines over %d classes; the comparison would be vacuous", rows, len(classes))
	}
	var wg sync.WaitGroup
	for caller := 0; caller < 2; caller++ {
		wg.Add(1)
		go func(caller int) {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i := range classes {
					c := classes[(i+caller*4)%len(classes)] // the callers run different classes at once
					got, err := run(c.class, c.text)
					if err != nil {
						t.Errorf("caller %d %s: %v", caller, c.class, err)
					} else if got != want[(i+caller*4)%len(classes)] {
						t.Errorf("caller %d %s: result differs from the serial run", caller, c.class)
					}
				}
			}
		}(caller)
	}
	wg.Wait()
}
