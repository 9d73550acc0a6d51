package segment

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/lorel"
	"repro/internal/timestamp"
)

// randomQuery draws one query from a template pool covering the evaluator
// paths that reach into history: exact-label steps, virtual <at T> steps,
// <add/rem at T> arc annotations, <upd ...> matching, <cre at T> node
// annotations, wildcards, and poll-time offsets t[-i] resolved against
// SetPollTimes. Time bounds on annotation variables give their steps
// windows (lorel's window.go): bounds exactly at a seal boundary, at, up
// to and below a candidate instant, with the constant on either side, an
// upd window whose last triple's new value comes from past its end, and
// bounds joined by or, which give none.
func randomQuery(rng *rand.Rand, times, seals []timestamp.Time) string {
	at := func() string { return fmt.Sprintf("%q", times[rng.Intn(len(times))].String()) }
	seal := at
	if len(seals) > 0 {
		seal = func() string { return fmt.Sprintf("%q", seals[rng.Intn(len(seals))].String()) }
	}
	switch rng.Intn(19) {
	case 0:
		return `select guide.restaurant.name`
	case 1:
		return fmt.Sprintf(`select N from guide.restaurant R, R.name N where R.price < %d`, 5+rng.Intn(40))
	case 2:
		return fmt.Sprintf(`select guide.<at %s>restaurant.name`, at())
	case 3:
		return fmt.Sprintf(`select R from guide.<at %s>restaurant R, R.<at %s>price P where P < %d`,
			at(), at(), 5+rng.Intn(40))
	case 4:
		return `select N, T from guide.<add at T>restaurant R, R.name N`
	case 5:
		return `select T from guide.<rem at T>restaurant`
	case 6:
		return `select T, OV, NV from guide.restaurant.price<upd at T from OV to NV>`
	case 7:
		return `select guide.#.name`
	case 8:
		return `select guide.restaurant.commen%`
	case 9:
		return fmt.Sprintf(`select N, T from guide.restaurant<cre at T> R, R.name N where T >= %s`, at())
	case 10:
		return fmt.Sprintf(`select T from guide.<add at T>restaurant where T > t[-%d]`, 1+rng.Intn(5))
	case 11:
		return `select N, T from guide.restaurant<cre at T> R, R.name N where T < t[0]`
	case 12:
		return fmt.Sprintf(`select T, OV, NV from guide.restaurant.price<upd at T from OV to NV> where T > %s`, seal())
	case 13:
		return fmt.Sprintf(`select T from guide.<add at T>restaurant where T >= %s`, seal())
	case 14:
		return fmt.Sprintf(`select T, NV from guide.restaurant.price<upd at T to NV> where T <= %s`, at())
	case 15:
		return fmt.Sprintf(`select T from guide.<rem at T>restaurant where T = %s`, at())
	case 16:
		return fmt.Sprintf(`select N, T from guide.restaurant R, R.name N, R.price<upd at T> where %s < T and %s >= T`, at(), at())
	case 17:
		return fmt.Sprintf(`select T from guide.<add at T>restaurant where T < %s or T > %s`, at(), seal())
	default:
		return fmt.Sprintf(`select T, NV from guide.restaurant.price<upd at T to NV> where T >= t[-%d] and T < %s`, 1+rng.Intn(5), seal())
	}
}

// TestSegmentedEvalParity is the subsystem's end-to-end property test:
// over randomized histories with randomized seal points, lorel engines on
// the segmented store's graph and on a clone of the monolithic database
// (access paths built at once, not kept up step by step) must return byte-identical results to one on the monolithic
// database itself, on well over 100 randomized queries including
// poll-time offsets.
func TestSegmentedEvalParity(t *testing.T) {
	total := 0
	for seed := int64(1); seed <= 4; seed++ {
		sealRng := rand.New(rand.NewSource(seed * 104729))
		dir := filepath.Join(t.TempDir(), "store")
		mono, st := buildPair(t, dir, seed, func(i int) bool { return sealRng.Intn(5) == 0 }, nil)
		defer st.Close()

		steps := mono.Steps()
		polls := steps[:len(steps)/2+1]
		engine := func(g lorel.Graph) *lorel.Engine {
			e := lorel.NewEngine()
			e.Register("guide", g)
			e.SetPollTimes(polls)
			return e
		}
		raw := engine(mono)
		others := []struct {
			name string
			e    *lorel.Engine
		}{{"segmented", engine(st.Graph())}, {"cloned", engine(mono.Clone())}}

		rng := rand.New(rand.NewSource(seed * 7919))
		times := candidateTimes(mono)
		var seals []timestamp.Time
		for _, h := range st.segs {
			seals = append(seals, h.end)
		}
		for i := 0; i < 50; i++ {
			q := randomQuery(rng, times, seals)
			want, err := raw.Query(q)
			if err != nil {
				t.Fatalf("seed %d: monolithic %q: %v", seed, q, err)
			}
			for _, o := range others {
				got, err := o.e.Query(q)
				if err != nil {
					t.Fatalf("seed %d: %s %q: %v", seed, o.name, q, err)
				}
				if want.String() != got.String() {
					t.Errorf("seed %d: %s result diverges for %q:\nmonolithic:\n%s\n%s:\n%s",
						seed, o.name, q, want, o.name, got)
				}
			}
			total++
		}
	}
	if total < 100 {
		t.Fatalf("property test ran only %d queries, want >= 100", total)
	}
}

// FuzzSegmentParity is the nightly fuzz entry: arbitrary seeds and seal
// masks must preserve graph-level parity between the segmented store and
// the monolithic database across a close and reopen. When the mask's top
// bit is set and something was sealed, the store is first truncated at its
// last seal boundary, and the monolithic database with it.
func FuzzSegmentParity(f *testing.F) {
	f.Add(int64(1), uint64(0))
	f.Add(int64(2), uint64(0x5555))
	f.Add(int64(3), uint64(0xffff))
	f.Add(int64(42), uint64(0x1248))
	f.Add(int64(5), uint64(1<<63|0x0421))
	f.Fuzz(func(t *testing.T, seed int64, sealMask uint64) {
		dir := filepath.Join(t.TempDir(), "store")
		mono, st := buildPair(t, dir, seed, func(i int) bool { return sealMask>>(uint(i)%63)&1 == 1 }, nil)
		if sealMask>>63 == 1 && st.Segments() > 0 {
			at := st.LastSeal()
			var err error
			if mono, err = mono.Truncate(at); err != nil {
				t.Fatal(err)
			}
			if err := st.Truncate(at); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		checkGraphParity(t, mono, st)
	})
}
