package qss

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/guidegen"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wrapper"
)

// parityFilters covers every fingerprint class: exact-label guards of all
// four kinds, a prefix-walked guard, a glob (kind-only) guard, a
// non-fresh guard (>= t[-1] matches old annotations, never skippable),
// and an unguarded query that fires on every poll.
var parityFilters = []string{
	`select %s.restaurant<cre at T> where T > t[-1]`,
	`select NV from %s.restaurant X, X.price<upd at T to NV> where T > t[-1]`,
	`select %s.<add at T>restaurant where T > t[0]`,
	`select X.name from %s.restaurant X, X.<rem at T>parking where T > t[-1]`,
	`select %s.rest%%<cre at T> where T >= t[0]`,
	`select %s.restaurant<cre at T> where T >= t[-1]`,
	`select %s.restaurant.name`,
}

// renderNotif serializes a notification for byte-for-byte comparison.
func renderNotif(n *Notification) string {
	if n == nil {
		return "<none>"
	}
	return fmt.Sprintf("%s@%s rows=%d\n%s", n.Subscription, n.At, n.Result.Len(), n.Answer.String())
}

// mutateRandom applies one random source mutation class; some rounds
// deliberately change nothing (silent polls are the skip fast path).
func mutateRandom(t *testing.T, rng *rand.Rand, src *wrapper.Mutable, ids *guidegen.PaperIDs, prices *[]oem.NodeID, rests *[]oem.NodeID) {
	t.Helper()
	err := src.Mutate(func(db *oem.Database) error {
		switch rng.Intn(6) {
		case 0: // new restaurant with name and price
			r := db.CreateNode(value.Complex())
			nm := db.CreateNode(value.Str(fmt.Sprintf("spot-%d", rng.Intn(1000))))
			pr := db.CreateNode(value.Int(int64(rng.Intn(40))))
			if err := db.AddArc(ids.Guide, "restaurant", r); err != nil {
				return err
			}
			if err := db.AddArc(r, "name", nm); err != nil {
				return err
			}
			if err := db.AddArc(r, "price", pr); err != nil {
				return err
			}
			*rests = append(*rests, r)
			*prices = append(*prices, pr)
		case 1: // price update
			p := (*prices)[rng.Intn(len(*prices))]
			return db.UpdateNode(p, value.Int(int64(rng.Intn(40))))
		case 2: // attach parking to a random restaurant
			r := (*rests)[rng.Intn(len(*rests))]
			if !db.HasArc(r, "parking", ids.Parking) {
				return db.AddArc(r, "parking", ids.Parking)
			}
		case 3: // detach parking again
			r := (*rests)[rng.Intn(len(*rests))]
			if db.HasArc(r, "parking", ids.Parking) {
				return db.RemoveArc(r, "parking", ids.Parking)
			}
		case 4: // unrelated change: comment on a restaurant
			c := db.CreateNode(value.Str("note"))
			return db.AddArc((*rests)[rng.Intn(len(*rests))], "comment", c)
		case 5: // silent round
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// fullNotification is the reference an incremental poll must match: the
// subscription's filter evaluated, with no skip, by a fresh engine over the
// raw database the last poll updated, with the subscription's poll times
// bound.
func fullNotification(t *testing.T, svc *Service, name string) *Notification {
	t.Helper()
	svc.mu.Lock()
	st := svc.subs[name]
	svc.mu.Unlock()
	st.mu.Lock()
	defer st.mu.Unlock()
	eng := lorel.NewEngine()
	eng.Register(st.sub.Name, st.d)
	eng.SetPollTimes(st.pollTimes)
	res, err := eng.Query(st.sub.Filter)
	if err != nil {
		t.Fatalf("reference %s: %v", name, err)
	}
	if res.Len() == 0 {
		return nil
	}
	return &Notification{Subscription: name, At: st.pollTimes[len(st.pollTimes)-1], Result: res, Answer: res.Answer()}
}

// TestIncrementalParityRandomized drives randomized change-set streams
// through a service in each store mode and requires every notification to
// be byte-identical to fullNotification: skipped evaluations must be
// exactly the empty ones, and filters evaluated through the index must
// return what the raw database returns. Run with -race in CI.
func TestIncrementalParityRandomized(t *testing.T) {
	modes := []struct {
		name  string
		setup func(t *testing.T, svc *Service)
	}{
		{"mono", nil},
		{"wal", func(t *testing.T, svc *Service) {
			if err := svc.EnableWAL(t.TempDir(), nil); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { svc.Close() })
		}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			defer obs.SetEnabled(obs.SetEnabled(true))
			src, ids := paperSource(t)
			svc := NewService(nil)
			if mode.setup != nil {
				mode.setup(t, svc)
			}
			for i, f := range parityFilters {
				name := fmt.Sprintf("P%d", i)
				err := svc.Subscribe(Subscription{
					Name:       name,
					SourceName: "guide",
					Source:     src,
					Polling:    `select guide.restaurant`,
					Filter:     fmt.Sprintf(f, name),
				})
				if err != nil {
					t.Fatalf("subscribe %s: %v", name, err)
				}
			}

			rng := rand.New(rand.NewSource(9))
			prices := []oem.NodeID{ids.Price, ids.JantaPrice}
			rests := []oem.NodeID{ids.Bangkok, ids.Janta}
			base := timestamp.MustParse("1Jan97")
			skipsBefore := obs.Default.Snapshot().Counters["incr_skips_total"]
			for round := 0; round < 25; round++ {
				mutateRandom(t, rng, src, ids, &prices, &rests)
				at := base.Add(time.Duration(round) * time.Hour)
				for i := range parityFilters {
					name := fmt.Sprintf("P%d", i)
					n, err := svc.Poll(name, at)
					if err != nil {
						t.Fatalf("round %d %s: %v", round, name, err)
					}
					if got, want := renderNotif(n), renderNotif(fullNotification(t, svc, name)); got != want {
						t.Fatalf("round %d %s: notification mismatch\nincremental:\n%s\nfull:\n%s", round, name, got, want)
					}
				}
			}
			if skips := obs.Default.Snapshot().Counters["incr_skips_total"] - skipsBefore; skips == 0 {
				t.Error("incremental service never skipped an evaluation (test is vacuous)")
			}
		})
	}
}
