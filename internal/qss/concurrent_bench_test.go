package qss

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/guidegen"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

// benchSub is one subscription of benchService: its own evolving
// 50-restaurant guide and the time of its last poll.
type benchSub struct {
	name string
	ev   *guidegen.Evolver
	src  *wrapper.Mutable
	t    timestamp.Time
}

// poll changes the guide a little and polls the subscription an hour
// after its previous poll, returning how long the poll took.
func (s *benchSub) poll(svc *Service) (time.Duration, error) {
	if err := s.src.Mutate(func(db *oem.Database) error { s.ev.DB = db; s.ev.Step(2); return nil }); err != nil {
		return 0, err
	}
	s.t = s.t.Add(time.Hour)
	start := time.Now()
	_, err := svc.Poll(s.name, s.t)
	return time.Since(start), err
}

// benchService subscribes n guides, each polled `polls` times, on a
// service persisted under opt (nil: in memory).
func benchService(b *testing.B, n, polls int, opt *wal.Options) (*Service, []*benchSub) {
	b.Helper()
	svc := NewService(nil)
	if opt != nil {
		if err := svc.EnableWAL(b.TempDir(), opt); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { svc.Close() })
	}
	return svc, subscribeBench(b, svc, n, polls)
}

// subscribeBench subscribes n evolving guides to svc and polls each
// `polls` times.
func subscribeBench(b *testing.B, svc *Service, n, polls int) []*benchSub {
	b.Helper()
	subs := make([]*benchSub, n)
	for i := range subs {
		ev := guidegen.NewEvolver(int64(i+1), 50)
		s := &benchSub{name: fmt.Sprintf("S%d", i), ev: ev, src: wrapper.NewMutable(ev.DB), t: timestamp.MustParse("1Jan97")}
		if err := svc.Subscribe(Subscription{
			Name: s.name, SourceName: "guide", Source: s.src,
			Polling: `select guide.restaurant`,
			Filter:  fmt.Sprintf(`select %s.restaurant<cre at T> where T > t[-1]`, s.name),
		}); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < polls; j++ {
			if _, err := s.poll(svc); err != nil {
				b.Fatal(err)
			}
		}
		subs[i] = s
	}
	return subs
}

var benchModes = []struct {
	name string
	opt  *wal.Options
}{
	{"memory", nil},
	{"wal-always", &wal.Options{Sync: wal.SyncAlways}},
	{"wal-interval", &wal.Options{Sync: wal.SyncInterval}},
}

// BenchmarkConcurrentPolls polls N subscriptions at once, one goroutine
// per subscription (as the scheduler runs them). It measures how the
// persistent path's shared work — the log append, its fsync and the fold
// — holds up under contention between subscriptions: compare the
// "memory" rows (no log) with the WAL rows. records/append is how many
// poll records one log append carried on average.
//
//	go test -run '^$' -bench ConcurrentPolls -benchtime 400x ./internal/qss/
func BenchmarkConcurrentPolls(b *testing.B) {
	for _, n := range []int{1, 8} {
		for _, m := range benchModes {
			b.Run(fmt.Sprintf("subs=%d/%s", n, m.name), func(b *testing.B) {
				svc, subs := benchService(b, n, 1, m.opt)
				per := (b.N + n - 1) / n
				defer obs.SetEnabled(obs.SetEnabled(true))
				before := obs.Snapshot()
				b.ResetTimer()
				start := time.Now()
				var wg sync.WaitGroup
				errs := make(chan error, n)
				for _, s := range subs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < per; i++ {
							if _, err := s.poll(svc); err != nil {
								errs <- err
								return
							}
						}
					}()
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				close(errs)
				for err := range errs {
					b.Fatal(err)
				}
				b.ReportMetric(float64(per*n)/elapsed.Seconds(), "polls/s")
				after := obs.Snapshot()
				if calls := after.Histogram("wal_append_ns").Count - before.Histogram("wal_append_ns").Count; calls > 0 {
					b.ReportMetric(float64(after.Counter("wal_appends_total")-before.Counter("wal_appends_total"))/float64(calls), "records/append")
				}
			})
		}
	}
}

// BenchmarkTruncateWhilePolling truncates one of 16 subscriptions (each
// with 30 polls of history) while another goroutine polls the other 15 in
// turn. ns/op is one Truncate, with the WAL's compaction; poll-p50-ms and
// poll-max-ms are the latencies the concurrent polls saw.
//
//	go test -run '^$' -bench TruncateWhilePolling -benchtime 50x ./internal/qss/
func BenchmarkTruncateWhilePolling(b *testing.B) {
	for _, m := range benchModes {
		b.Run(m.name, func(b *testing.B) {
			svc, subs := benchService(b, 16, 30, m.opt)
			stop := make(chan struct{})
			done := make(chan error, 1)
			var lat []time.Duration
			go func() {
				for i := 0; ; i++ {
					select {
					case <-stop:
						done <- nil
						return
					default:
					}
					d, err := subs[1+i%15].poll(svc)
					if err != nil {
						done <- err
						return
					}
					lat = append(lat, d)
				}
			}()
			var spent time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				prev := subs[0].t
				if _, err := subs[0].poll(svc); err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				if err := svc.Truncate("S0", prev); err != nil {
					b.Fatal(err)
				}
				spent += time.Since(start)
			}
			b.StopTimer()
			close(stop)
			if err := <-done; err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(spent.Nanoseconds())/float64(b.N), "ns/op")
			if len(lat) > 0 {
				slices.Sort(lat)
				b.ReportMetric(float64(lat[len(lat)/2].Microseconds())/1e3, "poll-p50-ms")
				b.ReportMetric(float64(lat[len(lat)-1].Microseconds())/1e3, "poll-max-ms")
			}
		})
	}
}

// BenchmarkRestartFromCheckpoint reopens a persistent service whose oplog
// is one compacted checkpoint of 16 subscriptions with 200 polls of
// history each. ns/op is EnableWAL, which restores every subscription's
// state from the checkpoint, plus Close.
//
//	go test -run '^$' -bench RestartFromCheckpoint -benchtime 10x ./internal/qss/
func BenchmarkRestartFromCheckpoint(b *testing.B) {
	dir := b.TempDir()
	opt := &wal.Options{Sync: wal.SyncNever}
	svc := NewService(nil)
	if err := svc.EnableWAL(dir, opt); err != nil {
		b.Fatal(err)
	}
	subscribeBench(b, svc, 16, 200)
	if err := svc.node.Compact(); err != nil {
		b.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc := NewService(nil)
		if err := svc.EnableWAL(dir, opt); err != nil {
			b.Fatal(err)
		}
		if n := len(svc.List()); n != 16 {
			b.Fatalf("restored %d subscriptions, want 16", n)
		}
		if err := svc.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
