package main

import (
	"fmt"
	"net"
	"path/filepath"
	"time"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/incr"
	"repro/internal/index"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/oemdiff"
	"repro/internal/oemio"
	"repro/internal/qss"
	"repro/internal/timestamp"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

// The notify workloads drive the paper's Figure 6 dataflow end to end: an
// in-process qss.Server on a real loopback listener, one qss.Dial client,
// WAL-backed subscriptions (wal.SyncAlways, the wal.Options{} default),
// closed loop — the client waits for each reply before it sends the next
// request.

const guideSource = "guide"

// subSpec is one subscription of a notify workload.
type subSpec struct {
	Name    string
	Polling string
	Filter  string
}

// timedSource is the in-situ timing decorator around the registered
// wrapper.Source. It is installed only in traced repetitions, records once
// the timed phase is live, and keeps the last snapshot so the polling
// query can be replayed on it. The closed loop orders its fields' writes
// (on the server's goroutine, before the reply) before the reads.
type timedSource struct {
	inner wrapper.Source
	tr    *tracer
	live  bool
	last  *oem.Database
	dur   time.Duration
}

func (s *timedSource) Poll() (*oem.Database, error) {
	start := time.Now()
	db, err := s.inner.Poll()
	if s.live {
		s.last = db
		s.dur = s.tr.inSitu("wrapper.poll", "client.poll", start, time.Now())
	}
	return db, err
}

func (s *timedSource) StableIDs() bool { return s.inner.StableIDs() }

// notifyBench is the running system of one notify repetition.
type notifyBench struct {
	r     *rep
	src   *wrapper.Mutable
	timed *timedSource // nil unless traced
	srv   *qss.Server
	cl    *qss.Client
	wal   string
	subs  []subSpec
	nseq  map[string]uint64     // last notification sequence seen, per subscription
	shade map[string]*subReplay // per-subscription replay state (traced only)
	done  chan struct{}         // closed when Serve returns
}

// pollTime is the polling instant of cycle i: one minute apart, so each
// subscription's times are strictly increasing.
func pollTime(i int) timestamp.Time { return epoch.Add(time.Duration(i) * time.Minute) }

// startNotify stands the system up and performs the first poll of every
// subscription (which reports the whole guide as created), draining those
// notifications. All of it is set-up.
func startNotify(r *rep, source *oem.Database, subs []subSpec) (*notifyBench, error) {
	b := &notifyBench{
		r: r, src: wrapper.NewMutable(source.Clone()), subs: subs,
		wal: filepath.Join(r.dir, "subwal"), nseq: make(map[string]uint64),
		done: make(chan struct{}),
	}
	var registered wrapper.Source = b.src
	if r.tr != nil {
		b.timed = &timedSource{inner: b.src, tr: r.tr}
		registered = b.timed
	}
	b.srv = qss.NewServer(map[string]wrapper.Source{guideSource: registered}, qss.RealClock{})
	if err := b.srv.EnableWAL(b.wal, &wal.Options{}); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() {
		b.srv.Serve(ln)
		close(b.done)
	}()
	b.cl, err = qss.Dial(ln.Addr().String())
	if err != nil {
		b.srv.Close()
		<-b.done
		return nil, err
	}
	r.arm(func() { b.cl.Close() })
	for _, s := range subs {
		if err := b.cl.Subscribe(s.Name, guideSource, guideSource, s.Polling, s.Filter, ""); err != nil {
			b.stop()
			return nil, fmt.Errorf("subscribe %s: %w", s.Name, err)
		}
	}
	for _, s := range subs {
		r.tick()
		if err := b.cl.Poll(s.Name, pollTime(0).String()); err != nil {
			b.stop()
			return nil, fmt.Errorf("first poll of %s: %w", s.Name, err)
		}
		// A first poll notifies when the filter matches the initial load.
		select {
		case n, ok := <-b.cl.Notifications():
			if ok {
				b.nseq[n.Subscription] = n.Seq
			}
		default:
		}
	}
	return b, nil
}

// stop closes the client, then the server (which closes the logs), and
// waits for the accept loop to end.
func (b *notifyBench) stop() {
	b.r.disarm()
	b.cl.Close()
	b.srv.Close()
	<-b.done
}

// receive waits for the next notification, up to opTimeout.
func (b *notifyBench) receive() (qss.ClientNotification, bool) {
	select {
	case n, ok := <-b.cl.Notifications():
		return n, ok
	case <-time.After(opTimeout):
		return qss.ClientNotification{}, false
	}
}

// stray reports a notification nobody expected, if one is waiting.
func (b *notifyBench) stray() bool {
	select {
	case n, ok := <-b.cl.Notifications():
		if ok {
			b.r.fail("unexpected notification for %s (nseq %d)", n.Subscription, n.Seq)
		}
		return ok
	default:
		return false
	}
}

// checkSeq verifies the notification belongs to sub, carries the polling
// time, and continues sub's sequence without a gap (exactly once).
func (b *notifyBench) checkSeq(n qss.ClientNotification, sub string, at timestamp.Time) bool {
	want := b.nseq[sub] + 1
	b.nseq[sub] = n.Seq
	if n.Subscription != sub || n.Seq != want || !n.At.Equal(at) {
		b.r.fail("notification for %s nseq %d at %s; want %s nseq %d at %s", n.Subscription, n.Seq, n.At, sub, want, at)
		return false
	}
	return true
}

// childValue returns the value of parent's only child under label.
func childValue(db *oem.Database, parent oem.NodeID, label string) (value.Value, bool) {
	arcs := db.OutLabeled(parent, label)
	if len(arcs) != 1 {
		return value.Value{}, false
	}
	return db.Value(arcs[0].Child)
}

// --- notify_changed --------------------------------------------------------

var changedSub = subSpec{
	Name:    "R",
	Polling: `select guide.restaurant`,
	Filter:  `select R.restaurant<cre at T> where T > t[-1]`,
}

// checkCreated verifies the answer holds exactly the one restaurant the
// mutation created, with its name and price.
func checkCreated(r *rep, answer *oem.Database, m *mutation) bool {
	arcs := answer.OutLabeled(answer.Root(), "restaurant")
	if len(arcs) != 1 || len(answer.Out(answer.Root())) != 1 {
		r.fail("answer has %d restaurant(s) of %d object(s); want exactly %q", len(arcs), len(answer.Out(answer.Root())), m.NewName)
		return false
	}
	name, _ := childValue(answer, arcs[0].Child, "name")
	price, _ := childValue(answer, arcs[0].Child, "price")
	if !name.Equal(value.Str(m.NewName)) || !price.Equal(value.Int(m.NewPrice)) {
		r.fail("answer is %s at %s; want %q at %d", name, price, m.NewName, m.NewPrice)
		return false
	}
	return true
}

func runNotifyChanged(r *rep) error {
	in := genNotifyChanged(r.seed, r.sz)
	b, err := startNotify(r, in.Source, []subSpec{changedSub})
	if err != nil {
		return err
	}
	defer b.stop()
	op := func(i int, m *mutation) (time.Duration, bool) {
		r.tick()
		at := pollTime(i + 1)
		t0 := time.Now()
		if err := b.src.Mutate(m.apply); err != nil {
			r.fail("mutate: %v", err)
			return time.Since(t0), false
		}
		tp0 := time.Now()
		if err := b.cl.Poll(changedSub.Name, at.String()); err != nil {
			r.fail("poll: %v", err)
			return time.Since(t0), false
		}
		tp1 := time.Now()
		n, ok := b.receive()
		t1 := time.Now()
		lat := t1.Sub(t0)
		if !ok {
			r.fail("no notification within %s", opTimeout)
			return lat, false
		}
		ok = b.checkSeq(n, changedSub.Name, at) && checkCreated(r, n.Answer, m)
		if b.shade != nil { // traced, and past warm-up
			r.tr.inSitu("op", "", t0, t1)
			r.tr.inSitu("source.mutate", "op", t0, tp0)
			r.tr.inSitu("client.poll", "op", tp0, tp1)
			r.tr.inSitu("client.recv", "op", tp1, t1)
			if err := b.replay(changedSub, at, tp1.Sub(tp0), true); err != nil {
				r.fail("replay: %v", err)
				ok = false
			}
		}
		return lat, ok
	}
	for i := 0; i < r.sz.Warmup; i++ {
		if _, ok := op(i, &in.Mutations[i]); !ok {
			return fmt.Errorf("warm-up op %d failed: %v", i, r.failures)
		}
	}
	if err := b.beginTimed(); err != nil {
		return err
	}
	for i := r.sz.Warmup; i < r.sz.Warmup+r.sz.run(); i++ {
		if r.tr != nil {
			r.tr.beginOp(i - r.sz.Warmup)
		}
		lat, ok := op(i, &in.Mutations[i])
		r.done(0, lat, ok)
	}
	return b.endTimed()
}

// --- notify_idle -----------------------------------------------------------

// idleSpecs lists notify_idle's subscriptions in polling order: for each
// cuisine, one whose filter reports price updates and one whose filter
// reports creations (which never fires after the first poll).
func idleSpecs() []subSpec {
	var subs []subSpec
	for _, c := range guideCuisines {
		polling := fmt.Sprintf(`select guide.restaurant where guide.restaurant.cuisine = %q`, c)
		subs = append(subs,
			subSpec{
				Name:    "upd_" + c,
				Polling: polling,
				Filter:  fmt.Sprintf(`select N, NV from upd_%s.restaurant X, X.name N, X.price<upd at T to NV> where T > t[-1]`, c),
			},
			subSpec{
				Name:    "cre_" + c,
				Polling: polling,
				Filter:  fmt.Sprintf(`select cre_%s.restaurant<cre at T> where T > t[-1]`, c),
			})
	}
	return subs
}

// checkUpdated verifies the answer is the one (name, new price) row the
// cycle's price update must produce.
func checkUpdated(r *rep, answer *oem.Database, u *priceUpdate) bool {
	rows := answer.OutLabeled(answer.Root(), "answer")
	if len(rows) != 1 {
		r.fail("answer has %d row(s); want 1 for %q", len(rows), u.Name)
		return false
	}
	// Columns carry the engine's default labels for N and NV.
	name, _ := childValue(answer, rows[0].Child, "name")
	nv, _ := childValue(answer, rows[0].Child, "new-value")
	if !name.Equal(value.Str(u.Name)) || !nv.Equal(value.Int(u.Value)) {
		r.fail("answer is %s -> %s; want %q -> %d", name, nv, u.Name, u.Value)
		return false
	}
	return true
}

func runNotifyIdle(r *rep) error {
	in := genNotifyIdle(r.seed, r.sz)
	subs := idleSpecs()
	b, err := startNotify(r, in.Source, subs)
	if err != nil {
		return err
	}
	defer b.stop()
	// One cycle: change one price, then poll every subscription. Each
	// poll is one op; only the cuisine's <upd> subscription may notify.
	cycle := func(c int, m *mutation, timed bool) bool {
		u := &m.Updates[0]
		at := pollTime(c + 1)
		if err := b.src.Mutate(m.apply); err != nil {
			r.fail("mutate: %v", err)
			return false
		}
		all := true
		for k, s := range subs {
			r.tick()
			if b.shade != nil {
				r.tr.beginOp((c-r.sz.Warmup/idleSubs)*idleSubs + k)
			}
			due := s.Name == "upd_"+u.Cuisine
			t0 := time.Now()
			err := b.cl.Poll(s.Name, at.String())
			tp1 := time.Now()
			ok := err == nil
			if err != nil {
				r.fail("poll %s: %v", s.Name, err)
			}
			var n qss.ClientNotification
			if ok && due {
				if n, ok = b.receive(); !ok {
					r.fail("no notification from %s within %s", s.Name, opTimeout)
				}
			}
			t1 := time.Now()
			if ok && due {
				ok = b.checkSeq(n, s.Name, at) && checkUpdated(r, n.Answer, u)
			}
			if b.stray() {
				ok = false
			}
			if b.shade != nil {
				r.tr.inSitu("op", "", t0, t1)
				r.tr.inSitu("client.poll", "op", t0, tp1)
				r.tr.inSitu("client.recv", "op", tp1, t1)
				if err := b.replay(s, at, tp1.Sub(t0), due); err != nil {
					r.fail("replay: %v", err)
					ok = false
				}
			}
			if timed {
				r.done(0, t1.Sub(t0), ok)
			}
			all = all && ok
		}
		return all
	}
	warm := r.sz.Warmup / idleSubs
	for c := 0; c < warm; c++ {
		if !cycle(c, &in.Mutations[c], false) {
			return fmt.Errorf("warm-up cycle %d failed: %v", c, r.failures)
		}
	}
	if err := b.beginTimed(); err != nil {
		return err
	}
	for c := warm; c < warm+r.sz.run()/idleSubs; c++ {
		cycle(c, &in.Mutations[c], true)
	}
	return b.endTimed()
}

// --- timed-phase bookkeeping and layer replay --------------------------------

// beginTimed ends set-up. In a traced repetition it first builds the
// replay state from what the subscriptions hold after warm-up.
func (b *notifyBench) beginTimed() error {
	if tr := b.r.tr; tr != nil {
		b.shade = make(map[string]*subReplay)
		for _, s := range b.subs {
			sr, err := newSubReplay(b, s)
			if err != nil {
				return err
			}
			b.shade[s.Name] = sr
		}
		n, err := dirSize(b.wal)
		if err != nil {
			return err
		}
		tr.count("wal.bytes", -float64(n))
		b.timed.live = true
	}
	b.r.beginTimed()
	return nil
}

// endTimed closes the timed phase and checks, outside it, that what the
// server holds equals what the replays rebuilt from the same inputs.
func (b *notifyBench) endTimed() error {
	b.r.endTimed()
	tr := b.r.tr
	if tr == nil {
		return nil
	}
	n, err := dirSize(b.wal)
	if err != nil {
		return err
	}
	tr.count("wal.bytes", float64(n))
	tr.count("wal.ops", float64(len(b.r.all())))
	for _, s := range b.subs {
		d, _, err := b.srv.Service().History(s.Name)
		if err != nil {
			return err
		}
		tr.count("doem.annotations", float64(d.NumAnnotations()))
		sr := b.shade[s.Name]
		sr.log.Close()
		if !sr.shadow.Equal(d) {
			b.r.checkFailed("replayed history of %s differs from the server's", s.Name)
		}
	}
	return nil
}

// subReplay is the state the layer replays of one subscription keep: a
// copy of the previous packaged snapshot, a shadow DOEM database fed the
// replayed diffs, an index over it, the filter's fingerprint and a log.
type subReplay struct {
	prev   *oem.Database
	shadow *doem.Database
	ig     *index.Graph
	fp     *incr.Fingerprint
	log    *wal.Log
	times  []timestamp.Time
}

func newSubReplay(b *notifyBench, s subSpec) (*subReplay, error) {
	d, times, err := b.srv.Service().History(s.Name)
	if err != nil {
		return nil, err
	}
	shadow, err := doem.FromHistory(d.Original(), d.ExtractHistory())
	if err != nil {
		return nil, fmt.Errorf("rebuilding %s: %w", s.Name, err)
	}
	q, err := lorel.Parse(s.Filter)
	if err != nil {
		return nil, err
	}
	if err := lorel.Canonicalize(q); err != nil {
		return nil, err
	}
	ig := index.NewGraph(shadow)
	log, err := wal.Open(filepath.Join(b.r.dir, "replaywal", s.Name), &wal.Options{})
	if err != nil {
		return nil, err
	}
	return &subReplay{
		prev: d.Current().Clone(), shadow: shadow, ig: ig,
		fp:  incr.Extract(q, map[string]lorel.Graph{s.Name: ig}),
		log: log, times: times,
	}, nil
}

// replay re-runs, through public APIs and on the inputs the poll just
// used, each layer Service.poll went through, in the same order, timing
// every call. poll is the client-side duration of the poll round trip the
// replayed spans are attributed to; what they leave is qss.unattributed.
func (b *notifyBench) replay(s subSpec, at timestamp.Time, poll time.Duration, notified bool) error {
	tr := b.r.tr
	sr := b.shade[s.Name]
	const parent = "client.poll"
	children := b.timed.dur
	var failure error
	note := func(err error) {
		if err != nil && failure == nil {
			failure = err
		}
	}

	// Query Manager: the polling query over the source snapshot, on a
	// fresh engine as the service builds one per poll.
	eng := lorel.NewEngine()
	eng.Register(guideSource, lorel.NewOEMGraph(b.timed.last))
	children += tr.replay("lorel.polling_eval", parent, "", func() {
		_, err := eng.Query(s.Polling)
		note(err)
	})

	// OEMdiff between the previous and the current packaged result.
	d, times, err := b.srv.Service().History(s.Name)
	if err != nil {
		return err
	}
	cur := d.Current()
	var ops change.Set
	children += tr.replay("oemdiff.diff", parent, "", func() {
		set, err := oemdiff.DiffIdentity(sr.prev, cur)
		note(err)
		ops = set
	})
	tr.count("qss.polls", 1)
	tr.count("oemdiff.ops", float64(len(ops)))

	// DOEM Manager: extend the history, which invalidates the index; the
	// next read rebuilds its tables.
	if len(ops) > 0 {
		children += tr.replay("doem.apply", parent, "", func() { note(sr.shadow.Apply(at, ops)) })
		sr.ig.Invalidate()
		children += tr.replay("index.build", parent, "", func() { sr.ig.UpdTriples(sr.shadow.Root()) })
		sr.prev = cur.Clone()
	}
	sr.times = times
	children += tr.replay("wal.append", parent, "", func() {
		_, err := sr.log.AppendStep(at, ops)
		note(err)
	})

	// Incremental matching, then the filter only when it is not skippable.
	var evaluate bool
	children += tr.replay("incr.decide", parent, "", func() {
		evaluate = sr.fp.Decide(incr.Summarize(ops, sr.shadow.Current()), sr.shadow.Current())
	})
	if !evaluate {
		tr.count("incr.skips", 1)
		if notified {
			note(fmt.Errorf("%s notified on a poll incr proves empty", s.Name))
		}
	} else {
		feng := lorel.NewEngine()
		feng.Register(s.Name, sr.ig)
		feng.SetPollTimes(sr.times)
		var res *lorel.Result
		children += tr.replay("lorel.filter_eval", parent, "", func() {
			r, err := feng.Query(s.Filter)
			note(err)
			res = r
		})
		if res != nil && (res.Len() > 0) != notified {
			note(fmt.Errorf("%s: replayed filter has %d row(s), notified=%v", s.Name, res.Len(), notified))
		}
		if res != nil && res.Len() > 0 {
			var answer *oem.Database
			var wire []byte
			children += tr.replay("lorel.answer", parent, "", func() { answer = res.Answer() })
			children += tr.replay("oemio.marshal", parent, "", func() {
				data, err := oemio.Marshal(answer)
				note(err)
				wire = data
			})
			children += tr.replay("oemio.unmarshal", parent, "", func() {
				_, err := oemio.Unmarshal(wire)
				note(err)
			})
			tr.count("oemio.answer_bytes", float64(len(wire)))
		}
	}
	if notified {
		tr.count("qss.notifications", 1)
	}

	// The floor under every notify op: one framed round trip.
	children += tr.replay("qss.wire_rtt", parent, "", func() { note(b.cl.Ping()) })

	tr.sample("qss.unattributed", tr.attribute(poll, children))
	return failure
}
