package segment

import (
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/index"
	"repro/internal/lorel"
	"repro/internal/symbol"
)

// TestInternStreamParity is the cross-mode property test for the interned
// symbol table under the streaming evaluator: every combination of
// {interning on/off} × {monolithic, indexed, segmented store} must return
// byte-identical results on randomized Chorel queries. Databases are
// rebuilt under each gate setting so the build-time paths (label
// canonicalization, symbol- vs string-keyed index tables) are exercised,
// not just the query-time ones.
//
// The test mutates the package-global interning gate, so it cannot run in
// parallel with itself or other gate-sensitive tests; the gate is restored
// on exit.
func TestInternStreamParity(t *testing.T) {
	modes := []struct {
		name   string
		intern bool
	}{
		{"intern", true},
		{"nointern", false},
	}

	defer symbol.SetEnabled(symbol.SetEnabled(true))

	total := 0
	for seed := int64(1); seed <= 2; seed++ {
		// want[i] is the reference rendering of query i, recorded by the
		// first engine of the first mode and enforced everywhere after.
		var queries []string
		var want []string

		for _, m := range modes {
			symbol.SetEnabled(m.intern)

			sealRng := rand.New(rand.NewSource(seed * 104729))
			dir := filepath.Join(t.TempDir(), "store")
			mono, st := buildPair(t, dir, seed, func(i int) bool { return sealRng.Intn(5) == 0 }, nil)

			raw := lorel.NewEngine()
			raw.Register("guide", mono)
			idx := lorel.NewEngine()
			idx.Register("guide", index.NewGraph(mono))
			seg := lorel.NewEngine()
			seg.Register("guide", st.Graph())

			steps := mono.Steps()
			polls := steps[:len(steps)/2+1]
			engines := []struct {
				name string
				e    *lorel.Engine
			}{{"mono", raw}, {"indexed", idx}, {"segmented", seg}}
			for _, en := range engines {
				en.e.SetPollTimes(polls)
			}

			if queries == nil {
				rng := rand.New(rand.NewSource(seed * 7919))
				times := candidateTimes(mono)
				for i := 0; i < 25; i++ {
					queries = append(queries, randomQuery(rng, times))
				}
			}

			for qi, q := range queries {
				for _, en := range engines {
					res, err := en.e.Query(q)
					if err != nil {
						t.Fatalf("seed %d mode %s engine %s %q: %v", seed, m.name, en.name, q, err)
					}
					got := res.String()
					if len(want) <= qi {
						want = append(want, got)
						continue
					}
					if got != want[qi] {
						t.Errorf("seed %d mode %s engine %s diverges for %q:\nwant:\n%s\ngot:\n%s",
							seed, m.name, en.name, q, want[qi], got)
					}
					total++
				}
			}
			st.Close()
		}
	}
	if total < 100 {
		t.Fatalf("parity matrix ran only %d comparisons, want >= 100", total)
	}
}

// TestInternParityExistsShortCircuit pins byte-parity on the query shape
// the exists fix changed, with interning on and off: a where-clause exists
// with an early witness and one with no witness.
func TestInternParityExistsShortCircuit(t *testing.T) {
	defer symbol.SetEnabled(symbol.SetEnabled(true))

	queries := []string{
		`select R from guide.restaurant R where exists N in R.name : N like "%a%"`,
		`select R from guide.restaurant R where exists N in R.name : N = "no such restaurant"`,
		`select count(guide.restaurant.name)`,
	}
	var want []string
	for _, intern := range []bool{false, true} {
		symbol.SetEnabled(intern)
		dir := filepath.Join(t.TempDir(), "store")
		_, st := buildPair(t, dir, 3, func(i int) bool { return i%3 == 0 }, nil)
		e := lorel.NewEngine()
		e.Register("guide", st.Graph())
		for qi, q := range queries {
			res, err := e.Query(q)
			if err != nil {
				t.Fatalf("intern=%v %q: %v", intern, q, err)
			}
			got := res.String()
			if len(want) <= qi {
				want = append(want, got)
			} else if got != want[qi] {
				t.Errorf("intern=%v diverges for %q:\nwant:\n%s\ngot:\n%s", intern, q, want[qi], got)
			}
		}
		st.Close()
	}
}
