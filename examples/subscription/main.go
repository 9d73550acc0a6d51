// Query Subscription Service walkthroughs:
//
//  1. The paper's Example 6.1 timeline — subscribe to new restaurants,
//     poll three nights in a row, and watch notifications appear exactly
//     when the paper says they should.
//
//  2. The paper's library motivating example (Section 1.1) — "notify me
//     when a popular book becomes available", where popularity (two or
//     more checkouts in the window) is expressed purely over the DOEM
//     history that QSS accumulates from circulation snapshots.
package main

import (
	"fmt"
	"log"

	"repro/internal/library"
	"repro/internal/oem"
	"repro/internal/qss"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wrapper"

	"repro/internal/guidegen"
)

func main() {
	restaurantTimeline()
	popularBooks()
}

// restaurantTimeline replays Example 6.1.
func restaurantTimeline() {
	fmt.Println("== Example 6.1: nightly 'new restaurants' subscription ==")
	db, ids := guidegen.PaperGuide()
	src := wrapper.NewMutable(db)
	svc := qss.NewService(nil)

	err := svc.Subscribe(qss.Subscription{
		Name:       "Restaurants",
		SourceName: "guide",
		Source:     src,
		Polling:    `select guide.restaurant`,
		Filter:     `select Restaurants.restaurant<cre at T> where T > t[-1]`,
	})
	if err != nil {
		log.Fatal(err)
	}

	poll := func(day string) {
		n, err := svc.Poll("Restaurants", timestamp.MustParse(day))
		if err != nil {
			log.Fatal(err)
		}
		if n == nil {
			fmt.Printf("%s: no notification\n", day)
			return
		}
		fmt.Printf("%s: notified of %d restaurant(s)\n", day, n.Result.Len())
		for _, a := range n.Answer.OutLabeled(n.Answer.Root(), "restaurant") {
			for _, na := range n.Answer.OutLabeled(a.Child, "name") {
				fmt.Printf("  - %s\n", n.Answer.MustValue(na.Child).Display())
			}
		}
	}

	poll("30Dec96") // initial snapshot: both restaurants are "new"
	poll("31Dec96") // nothing changed: silence
	// On 1Jan97 the Hakata restaurant appears in the source.
	err = src.Mutate(func(db *oem.Database) error {
		r := db.CreateNode(value.Complex())
		nm := db.CreateNode(value.Str("Hakata"))
		if err := db.AddArc(ids.Guide, "restaurant", r); err != nil {
			return err
		}
		return db.AddArc(r, "name", nm)
	})
	if err != nil {
		log.Fatal(err)
	}
	poll("1Jan97") // exactly Hakata is reported
}

// popularBooks drives the library example end to end.
func popularBooks() {
	fmt.Println("\n== Library: popular books becoming available ==")
	sim := library.New(7, 6)
	src := wrapper.NewMutable(sim.DB())
	svc := qss.NewService(nil)

	err := svc.Subscribe(qss.Subscription{
		Name:       "Books",
		SourceName: "library",
		Source:     src,
		Polling:    `select library.book`,
		// Popular and available: two distinct checkout-counter updates in
		// the history, and currently on the shelf.
		Filter: `select T from Books.book B, B.title T
			where B.status = "in"
			  and B.checkouts<upd at T1> >= 0
			  and B.checkouts<upd at T2> >= 0 and T2 > T1`,
	})
	if err != nil {
		log.Fatal(err)
	}

	day := timestamp.MustParse("1Jan97")
	poll := func(what string) {
		n, err := svc.Poll("Books", day)
		if err != nil {
			log.Fatal(err)
		}
		day = day.Add(86400e9)
		if n == nil {
			fmt.Printf("%-34s -> no notification\n", what)
			return
		}
		titles := n.Result.Values("title")
		fmt.Printf("%-34s -> popular & available: %d\n", what, len(titles))
		for _, t := range titles {
			fmt.Printf("  - %s\n", t.Display())
		}
	}

	mutate := func(fn func()) {
		if err := src.Mutate(func(db *oem.Database) error { sim.SetDB(db); fn(); return nil }); err != nil {
			log.Fatal(err)
		}
	}

	poll("initial snapshot")
	mutate(func() { sim.Checkout(0) })
	poll("book 0 checked out once")
	mutate(func() { sim.Return(0) })
	poll("book 0 returned")
	mutate(func() { sim.Checkout(0) })
	poll("book 0 checked out again")
	mutate(func() { sim.Return(0) })
	poll("book 0 returned again") // now popular AND available
}
