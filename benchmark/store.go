package main

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/lore"
	"repro/internal/lorel"
	"repro/internal/segment"
	"repro/internal/wal"
)

// store_mixed: writes beside reads on the persistent segmented store,
// queried the way cmd/chorel does — one long-lived lorel.Engine over
// SegmentStore(name).Graph(). One op is a round: Store.ApplySet of one
// change set, then four queries. Single caller, so the schedule is the
// same on every commit.

const storeName = "guide"

// storePolicy seals the active segment every 2,000 annotations (about
// every hundred change sets) and keeps two sealed indexes in memory.
var storePolicy = segment.Policy{SealAnnotations: 2000, MaxHot: 2}

// keptRound is what the timed phase keeps of a round picked for
// verification: the rendered results of its queries.
type keptRound struct {
	round int
	out   [storeQueries]string
}

func runStoreMixed(r *rep) error {
	in := genStoreMixed(r.seed, r.sz)
	dir := filepath.Join(r.dir, "store")
	open := func() (*lore.Store, error) { return lore.OpenSegmented(dir, &wal.Options{}, &storePolicy) }
	st, err := open()
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			st.Close()
		}
	}()
	if err := st.PutDOEM(storeName, doem.New(in.Initial.Clone())); err != nil {
		return err
	}
	for _, step := range in.Preload {
		if err := st.ApplySet(storeName, step.At, step.Ops); err != nil {
			return fmt.Errorf("preload %s: %w", step.At, err)
		}
	}
	seg, ok := st.SegmentStore(storeName)
	if !ok {
		return fmt.Errorf("%s is not segment-backed", storeName)
	}
	eng := lorel.NewEngine()
	eng.Register(storeName, seg.Graph())
	r.arm(func() {}) // in-process calls cannot be interrupted; the watchdog only records
	defer r.disarm()

	// round runs one op. keep is nil for warm-up rounds; for timed rounds
	// it receives the rendered results, and spans and seals are recorded.
	round := func(rd *storeRound, keep *keptRound) (time.Duration, bool) {
		r.tick()
		ok := true
		sealsBefore := seg.Segments()
		t0 := time.Now()
		if err := st.ApplySet(storeName, rd.At, rd.Set); err != nil {
			r.fail("apply %s: %v", rd.At, err)
			ok = false
		}
		ta := time.Now()
		var qEnd [storeQueries]time.Time
		for k, q := range rd.Queries {
			res, err := eng.Query(q.Text)
			if err != nil {
				r.fail("%s %q: %v", q.Class, q.Text, err)
				ok = false
			} else if out := res.String(); keep != nil {
				keep.out[k] = out
			}
			qEnd[k] = time.Now()
		}
		t1 := qEnd[storeQueries-1]
		if n := seg.Segments() - sealsBefore; n > 0 && keep != nil {
			// Seals are rare (one per ~70 rounds), so they are counted on
			// every repetition; the traced run reports the untraced full
			// list's, which has some, not the traced quarter's.
			r.extra["segment.seals"] += float64(n)
			if stall := ms(ta.Sub(t0)); stall > r.extra["segment.seal_stall_ms_max"] {
				r.extra["segment.seal_stall_ms_max"] = stall
			}
		}
		if tr := r.tr; tr != nil && keep != nil {
			tr.inSitu("op", "", t0, t1)
			tr.inSitu("lore.apply", "op", t0, ta)
			from := ta
			for k, q := range rd.Queries {
				tr.add("lore.query", "op", q.Class, from, qEnd[k], false)
				from = qEnd[k]
			}
		}
		return t1.Sub(t0), ok
	}
	for i := 0; i < r.sz.Warmup; i++ {
		if _, ok := round(&in.Rounds[i], nil); !ok {
			return fmt.Errorf("warm-up round %d failed: %v", i, r.failures)
		}
	}

	n := r.sz.run()
	picked := sampleOps(rngFor(r.seed, "store_mixed/verify"), n)
	var keptRounds []keptRound
	var shadow *storeShadow
	var diskBefore int64
	if r.tr != nil {
		if shadow, err = newStoreShadow(r.tr, eng, in, r.sz.Warmup); err != nil {
			return err
		}
		if diskBefore, err = dirSize(dir); err != nil {
			return err
		}
	}
	r.beginTimed()
	for i := 0; i < n; i++ {
		rd := &in.Rounds[r.sz.Warmup+i]
		keep := &keptRound{round: i}
		if r.tr != nil {
			r.tr.beginOp(i)
		}
		lat, ok := round(rd, keep)
		r.done(0, lat, ok)
		if picked[i] {
			keptRounds = append(keptRounds, *keep)
		}
		if shadow != nil {
			if err := shadow.replay(rd); err != nil {
				r.checkFailed("replay of round %d: %v", i, err)
			}
		}
	}
	r.endTimed()

	// Outside the timed phase: the kept rounds against a monolithic,
	// un-indexed database rebuilt from the same history, then durability.
	oracle, err := doem.FromHistory(in.Initial.Clone(), in.Preload)
	if err != nil {
		return err
	}
	raw := lorel.NewEngine()
	raw.Register(storeName, oracle)
	next := 0
	for i := 0; i < r.sz.Warmup+n; i++ {
		rd := &in.Rounds[i]
		if err := oracle.Apply(rd.At, rd.Set); err != nil {
			return fmt.Errorf("oracle round %d: %w", i, err)
		}
		if next < len(keptRounds) && keptRounds[next].round == i-r.sz.Warmup {
			for k, q := range rd.Queries {
				want, err := raw.Query(q.Text)
				if err != nil {
					r.checkFailed("oracle %q: %v", q.Text, err)
				} else if want.String() != keptRounds[next].out[k] {
					r.checkFailed("round %d %s %q: segmented result differs from the monolithic database's", i-r.sz.Warmup, q.Class, q.Text)
				}
			}
			next++
		}
	}

	// Every acknowledged write must be readable from flushed bytes alone:
	// close, reopen from the directory, compare with the state in memory
	// before the close and with the oracle.
	live, err := st.GetDOEM(storeName)
	if err != nil {
		return err
	}
	before := live.Current().Clone()
	segsBefore, lastBefore := seg.Segments(), live.LastStep()
	if r.tr != nil {
		diskAfter, err := dirSize(dir)
		if err != nil {
			return err
		}
		r.tr.count("segment.disk_bytes", float64(diskAfter-diskBefore))
		r.tr.count("segment.user_bytes", float64(shadow.userBytes))
		r.tr.count("doem.annotations", float64(oracle.NumAnnotations()))
	}
	closed = true
	if err := st.Close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	openStart := time.Now()
	re, err := open()
	if err != nil {
		r.checkFailed("reopen: %v", err)
		return nil
	}
	defer re.Close()
	if r.tr != nil {
		r.tr.beginOp(-1)
		r.tr.inSitu("segment.open", "", openStart, time.Now())
	}
	rd, err := re.GetDOEM(storeName)
	if err != nil {
		r.checkFailed("reopened store: %v", err)
		return nil
	}
	rseg, _ := re.SegmentStore(storeName)
	switch {
	case !rd.Current().Equal(before):
		r.checkFailed("recovered snapshot differs from the one in memory before close")
	case !rd.Current().Equal(oracle.Current()):
		r.checkFailed("recovered snapshot differs from the oracle's")
	case rseg == nil || rseg.Segments() != segsBefore || !rd.LastStep().Equal(lastBefore):
		r.checkFailed("recovered store has a different segment count or last step")
	}
	return nil
}

// storeShadow replays, after each traced round, the layers under the
// store: doem.Apply on a monolithic shadow database, and pure evaluation
// of the round's queries (parsed and planned already) on an engine over
// the store's graph.
type storeShadow struct {
	tr        *tracer
	eng       *lorel.Engine
	d         *doem.Database
	userBytes int
}

func newStoreShadow(tr *tracer, eng *lorel.Engine, in *storeInputs, warmup int) (*storeShadow, error) {
	d, err := doem.FromHistory(in.Initial.Clone(), in.Preload)
	if err != nil {
		return nil, err
	}
	for _, rd := range in.Rounds[:warmup] {
		if err := d.Apply(rd.At, rd.Set); err != nil {
			return nil, err
		}
	}
	return &storeShadow{tr: tr, eng: eng, d: d}, nil
}

func (s *storeShadow) replay(rd *storeRound) error {
	var failure error
	s.tr.replay("doem.apply", "lore.apply", "", func() { failure = s.d.Apply(rd.At, rd.Set) })
	s.userBytes += len(change.AppendSet(nil, rd.Set))
	for _, q := range rd.Queries {
		parsed, err := lorel.Parse(q.Text)
		if err == nil {
			err = lorel.Canonicalize(parsed)
		}
		if err != nil {
			return err
		}
		s.tr.replay("lorel.eval", "lore.query", q.Class, func() {
			if _, err := s.eng.Eval(parsed); err != nil {
				failure = err
			}
		})
	}
	return failure
}
