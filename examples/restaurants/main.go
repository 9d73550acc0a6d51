// The paper's complete running example: the Palo Alto Weekly restaurant
// guide (Figure 2), the January 1997 history (Examples 2.2-2.3), the DOEM
// database it induces (Figure 4), and every query of Examples 4.1-4.5,
// including the Section 5 translation of Example 4.5 into Lorel over the
// OEM encoding (Example 5.1).
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/chorel"
	"repro/internal/encoding"
	"repro/internal/guidegen"
)

func main() {
	db, ids := guidegen.PaperGuide()
	fmt.Println("== Figure 2: the Guide database ==")
	fmt.Print(db)

	cdb, err := repro.OpenWithHistory("guide", db, guidegen.PaperHistory(ids))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== Figure 4: the DOEM database after the history ==")
	fmt.Print(cdb.DOEM())

	queries := []struct {
		title string
		text  string
	}{
		{"Example 4.1 — coercing comparison (answer: Bangkok Cuisine)",
			`select guide.restaurant where guide.restaurant.price < 20.5`},
		{"Example 4.2 — newly added restaurants (answer: Hakata)",
			`select guide.<add>restaurant`},
		{"Example 4.3 — added before 4Jan97 (answer: Hakata)",
			`select guide.<add at T>restaurant where T < 4Jan97`},
		{"Example 4.4 — price updates with time and new value",
			`select N, T, NV
			 from guide.restaurant.price<upd at T to NV>, guide.restaurant.name N
			 where T >= 1Jan97 and NV > 15`},
		{"Example 4.5 — moderate price added since 1Jan97 (answer: empty)",
			`select N from guide.restaurant R, R.name N
			 where R.<add at T>price = "moderate" and T >= 1Jan97`},
		{"Removed arcs — who lost their parking, and when",
			`select N, T from guide.restaurant R, R.name N, R.<rem at T>parking P`},
	}
	for _, q := range queries {
		fmt.Printf("\n== %s ==\n%s\n", q.title, q.text)
		res, err := cdb.Query(q.text)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(res)
	}

	// Example 5.1: the Chorel-to-Lorel translation of Example 4.5.
	fmt.Println("\n== Example 5.1: translating Example 4.5 to Lorel over the OEM encoding ==")
	translated, err := chorel.TranslateString(
		`select N from guide.restaurant R, R.name N
		 where R.<add at T>price = "moderate" and T >= 1Jan97`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(translated)

	// Run a query through both strategies and confirm they agree.
	fmt.Println("\n== Section 5: both execution strategies agree ==")
	const q = `select guide.<add>restaurant`
	direct, err := cdb.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	trans, err := cdb.QueryTranslated(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("direct:     %d row(s), DOEM node %v\n", direct.Len(), direct.FirstColumnNodes())
	fmt.Printf("translated: %d row(s), mapped back to %v\n", trans.Len(), cdb.MapToDOEM(trans.FirstColumnNodes()))

	// Encoding overhead (the Section 5.1 price of the layered strategy).
	enc := encoding.Encode(cdb.DOEM())
	stats := encoding.Measure(cdb.DOEM(), enc)
	fmt.Printf("\nOEM encoding size: %d nodes / %d arcs for %d DOEM nodes / %d arcs (+%d annotations)\n",
		stats.EncNodes, stats.EncArcs, stats.DOEMNodes, stats.DOEMArcs, stats.Annotations)

}
