// Time travel over a DOEM history: historical snapshots (Section 3.2) and
// the paper's Section 4.2.2 virtual <at T> annotations, demonstrated on a
// synthetic evolving restaurant guide.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/guidegen"
	"repro/internal/timestamp"
)

func main() {
	// A 20-restaurant guide evolving for 10 daily steps from 1Jan97.
	initial, history := guidegen.GenerateHistory(42, 20, 10, 6)
	cdb, err := repro.OpenWithHistory("guide", initial, history)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== Snapshot sizes over time (Section 3.2's O_t(D)) ==")
	for _, day := range []string{"31Dec96", "2Jan97", "5Jan97", "8Jan97", "11Jan97"} {
		t := timestamp.MustParse(day)
		snap := cdb.SnapshotAt(t)
		fmt.Printf("  %-8s %3d restaurants, %3d nodes\n",
			day, len(snap.OutLabeled(snap.Root(), "restaurant")), snap.NumNodes())
	}
	cur := cdb.Current()
	fmt.Printf("  %-8s %3d restaurants, %3d nodes\n",
		"today", len(cur.OutLabeled(cur.Root(), "restaurant")), cur.NumNodes())

	fmt.Println("\n== Virtual annotations: the guide as of 3Jan97, in one query ==")
	res, err := cdb.Query(`select N from guide.<at 3Jan97>restaurant R, R.name N`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("restaurants listed on 3Jan97: %d\n", res.Len())

	fmt.Println("\n== Value history of every updated price ==")
	res, err = cdb.Query(`select N, T, OV, NV
		from guide.restaurant R, R.name N, R.price<upd at T from OV to NV>`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)

	fmt.Println("\n== Restaurants present then but gone today ==")
	// Objects live at 3Jan97 whose root arc has since been removed.
	res, err = cdb.Query(`select N, T from guide.<rem at T>restaurant R, R.name N`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res)

	// The reconstructed history round-trips (Section 3.2's H(D)).
	h := cdb.History()
	replay := cdb.SnapshotAt(timestamp.NegInf)
	if err := h.Apply(replay); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nH(D) has %d steps; replaying it over O_0(D) reproduces the current snapshot: %v\n",
		len(h), replay.Equal(cdb.Current()))
}
