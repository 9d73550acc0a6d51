package lorel

import "sync"

// evalParallel evaluates a canonicalized query by partitioning the
// outermost from-clause binding stream across workers goroutines.
//
// The outermost generator's bindings are computed serially (path expansion
// for a single generator is cheap relative to the nested enumeration it
// feeds), then split into contiguous ranges, one per worker. Each worker
// owns a forked evaluation and enumerates the remaining generators for its
// range exactly as serial evaluation would, collecting rows into a private
// shard with a private dedup map. Shards are concatenated in partition
// order under a global dedup, which yields the same row sequence as serial
// evaluation: dedup keeps the first occurrence, so deduplicating
// already-deduplicated shards in order is equivalent to deduplicating the
// full serial stream.
//
// done reports whether parallel evaluation handled the query; when false
// the caller must fall back to serial evaluation (no generators to
// partition, or too few outer bindings to be worth fanning out — the
// serial path also owns the empty-generator existential-null semantics).
func (ev *evaluation) evalParallel(q *Query, gens []FromItem, strict, workers int) (res *Result, done bool, err error) {
	if len(gens) == 0 {
		return nil, false, nil
	}
	outer, err := ev.evalPath(gens[0].Path)
	if err != nil {
		return nil, true, err
	}
	if len(outer) < 2 {
		return nil, false, nil
	}
	if workers > len(outer) {
		workers = len(outer)
	}

	mParallel.Inc()
	type shard struct {
		rows []Row
		// errAt is the outer-binding index at which err occurred; the
		// merge returns the error with the smallest index, which is the
		// first error serial evaluation would have hit.
		errAt int
		err   error
		// Worker-local stat counters, copied out of the forked evaluation
		// after the worker finishes and summed into the parent by the merge
		// loop (never touched concurrently, so collection is race-clean).
		bindings  int64
		dedupHits int64
	}
	shards := make([]shard, workers)
	// In streaming mode each worker sends rows over a bounded channel as
	// they are produced; the merge consumes the channels in partition order
	// while later workers are still running, so shards never buffer in full
	// and the first rows reach the merged result before the last outer
	// binding has been enumerated. Order is unchanged: channel i is drained
	// to exhaustion before channel i+1 is touched, which is exactly the
	// concatenation order the buffered merge uses.
	var chans []chan Row
	if ev.stream {
		chans = make([]chan Row, workers)
		for w := range chans {
			chans[w] = make(chan Row, 256)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * len(outer) / workers
		hi := (w + 1) * len(outer) / workers
		wg.Add(1)
		go func(w int, sh *shard, lo, hi int) {
			defer wg.Done()
			sp := ev.trace.StartSpan("worker")
			wev := ev.fork()
			seen := make(map[string]bool)
			rows := 0
			var emit func() error
			if ev.stream {
				ch := chans[w]
				// errAt/err are written before close(ch); the merge reads
				// them only after draining ch, so close synchronizes the
				// hand-off.
				defer close(ch)
				emit = wev.emitter(q, seen, func(row Row) { rows++; ch <- row })
			} else {
				emit = wev.emitter(q, seen, func(row Row) { sh.rows = append(sh.rows, row) })
			}
			wx := wev.newWrittenExec(gens, strict, emit)
			for i := lo; i < hi; i++ {
				m := wev.env.mark()
				wev.env.bindResult(gens[0].Var, outer[i])
				err := wx.enumerate(1)
				wev.env.release(m)
				if err != nil {
					sh.errAt, sh.err = i, err
					break
				}
			}
			sh.bindings, sh.dedupHits = wev.bindings, wev.dedupHits
			if !ev.stream {
				rows = len(sh.rows)
			}
			sp.EndNote("w=%d range=[%d,%d) rows=%d", w, lo, hi, rows)
		}(w, &shards[w], lo, hi)
	}

	res = &Result{}
	if ev.stream {
		msp := ev.trace.StartSpan("merge")
		seen := make(map[string]bool)
		for _, ch := range chans {
			for row := range ch {
				k := row.key()
				if !seen[k] {
					seen[k] = true
					res.Rows = append(res.Rows, row)
				} else {
					ev.dedupHits++
				}
			}
		}
		msp.EndNote("workers=%d rows=%d", workers, len(res.Rows))
	}
	wg.Wait()
	for i := range shards {
		ev.bindings += shards[i].bindings
		ev.dedupHits += shards[i].dedupHits
	}

	// Workers are not cancelled when a sibling fails: each runs its range
	// to completion (or its own first error), so the minimum error index
	// across shards identifies exactly the error serial evaluation
	// reports. Errors are rare; the wasted work is an acceptable price
	// for byte-identical error behavior.
	var firstErr error
	firstAt := -1
	for i := range shards {
		if shards[i].err != nil && (firstAt < 0 || shards[i].errAt < firstAt) {
			firstAt, firstErr = shards[i].errAt, shards[i].err
		}
	}
	if firstErr != nil {
		return nil, true, firstErr
	}

	if !ev.stream {
		msp := ev.trace.StartSpan("merge")
		seen := make(map[string]bool)
		for i := range shards {
			for _, row := range shards[i].rows {
				k := row.key()
				if !seen[k] {
					seen[k] = true
					res.Rows = append(res.Rows, row)
				} else {
					ev.dedupHits++
				}
			}
		}
		msp.EndNote("workers=%d rows=%d", workers, len(res.Rows))
	}
	return res, true, nil
}
