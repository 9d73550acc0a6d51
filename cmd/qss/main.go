// Command qss runs the Query Subscription Service server (paper Section 6,
// Figure 7). It hosts one or more information sources and accepts QSC
// client connections over TCP.
//
// Usage:
//
//	qss [-listen ADDR] [-guide N] [-library N] [-evolve DUR] [-waldir DIR] [-walsync POLICY] [-csv NAME=PATH:KEY:ROW]...
//
// Persistence is a per-subscription write-ahead log (-waldir, with
// -walsync choosing its durability; see docs/wal.md) or a replicated
// oplog (-repl-dir, below). Every poll's record reaches the log before
// the subscription's history advances.
//
// Built-in demo sources:
//
//	guide    a synthetic restaurant guide with N entries that evolves
//	         every -evolve interval (default 2s), polled as "guide"
//	library  a circulation simulator with N books, polled as "library"
//
// CSV sources re-read PATH on every poll, exposing rows as ROW objects
// keyed by the KEY column.
//
// Observability (see docs/observability.md): -admin ADDR serves /metrics
// (expvar-style JSON, or Prometheus text with ?format=prometheus),
// /healthz with per-subscription poll-health states, and net/http/pprof —
// and switches metrics collection on. -version prints build information.
//
// Fault tolerance (see docs/robustness.md): -heartbeat, -idle-timeout,
// -write-timeout, -max-msg and -linger harden the wire layer;
// -retry-initial, -retry-max, -degraded-after, -suspend-after and -probe
// tune poll retry and subscription health. The -chaos-* flags wrap every
// source with seeded fault injection for resilience testing. SIGINT or
// SIGTERM triggers a graceful shutdown (pollers stopped, WAL flushed,
// connections drained).
//
// Replication (see docs/replication.md): -repl-dir turns the server into a
// replication participant whose poll history lives on a replicated oplog
// (mutually exclusive with -waldir). -repl-listen accepts
// follower streams; -repl-primary takes the primary role at startup, while
// -repl-follow ADDR follows an existing primary and serves reads, with
// writes redirected to the primary's -repl-advertise address. -repl-ack
// picks the write acknowledgment mode (none | one | quorum). POST
// /promote on the admin endpoint promotes a follower during failover, and
// /healthz reports the node's role, epoch and replication lag.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/guidegen"
	"repro/internal/library"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/qss"
	"repro/internal/repl"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

type csvFlags []string

func (c *csvFlags) String() string     { return strings.Join(*c, ",") }
func (c *csvFlags) Set(s string) error { *c = append(*c, s); return nil }

type config struct {
	listen  string
	guideN  int
	libN    int
	evolve  time.Duration
	seed    int64
	walDir  string
	walSync string
	csvs    []string
	admin   string

	heartbeat    time.Duration
	idleTimeout  time.Duration
	writeTimeout time.Duration
	maxMsg       int
	linger       time.Duration
	drain        time.Duration

	retryInitial  time.Duration
	retryMax      time.Duration
	degradedAfter int
	suspendAfter  int
	probe         time.Duration

	chaosSeed    int64
	chaosErrRate float64
	chaosLatency time.Duration

	replDir        string
	replListen     string
	replFollow     string
	replPrimary    bool
	replID         string
	replAck        string
	replReplicas   int
	replAckTimeout time.Duration
	replAdvertise  string
	replHeartbeat  time.Duration
	replIdle       time.Duration
}

func main() {
	var cfg config
	flag.StringVar(&cfg.listen, "listen", "127.0.0.1:4997", "address to listen on")
	flag.IntVar(&cfg.guideN, "guide", 50, "restaurants in the demo guide source")
	flag.IntVar(&cfg.libN, "library", 30, "books in the demo library source")
	flag.DurationVar(&cfg.evolve, "evolve", 2*time.Second, "interval between demo source changes")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed for the demo sources")
	flag.StringVar(&cfg.walDir, "waldir", "", "directory for per-subscription write-ahead logs (empty: no persistence)")
	flag.StringVar(&cfg.walSync, "walsync", "interval", "WAL durability: always | interval | never")
	flag.StringVar(&cfg.admin, "admin", "", "serve /metrics, /healthz and pprof on this address (enables metrics collection; empty = off)")
	version := flag.Bool("version", false, "print build information and exit")
	var csvs csvFlags
	flag.Var(&csvs, "csv", "CSV source as NAME=PATH:KEY:ROW (repeatable)")

	flag.DurationVar(&cfg.heartbeat, "heartbeat", 0, "push idle keep-alives to clients at this interval (0 = off)")
	flag.DurationVar(&cfg.idleTimeout, "idle-timeout", 0, "drop connections silent for this long (0 = never)")
	flag.DurationVar(&cfg.writeTimeout, "write-timeout", 0, "per-message write deadline (0 = none)")
	flag.IntVar(&cfg.maxMsg, "max-msg", 0, "max request line size in bytes (0 = 1 MiB default)")
	flag.DurationVar(&cfg.linger, "linger", 0, "keep a disconnected client's subscriptions resumable for this long")
	flag.DurationVar(&cfg.drain, "drain", 5*time.Second, "graceful-shutdown window for connected clients")

	flag.DurationVar(&cfg.retryInitial, "retry-initial", 0, "initial poll retry backoff (0 = default 1s)")
	flag.DurationVar(&cfg.retryMax, "retry-max", 0, "max poll retry backoff (0 = default 1m)")
	flag.IntVar(&cfg.degradedAfter, "degraded-after", 0, "consecutive poll failures before a subscription is degraded (0 = default 3)")
	flag.IntVar(&cfg.suspendAfter, "suspend-after", 0, "consecutive poll failures before a subscription is suspended (0 = default 8)")
	flag.DurationVar(&cfg.probe, "probe", 0, "probe interval while suspended (0 = default 1m)")

	flag.Int64Var(&cfg.chaosSeed, "chaos-seed", 0, "seed for source fault injection")
	flag.Float64Var(&cfg.chaosErrRate, "chaos-error-rate", 0, "probability each source poll fails (0 = chaos off)")
	flag.DurationVar(&cfg.chaosLatency, "chaos-latency", 0, "max injected source poll latency")

	flag.StringVar(&cfg.replDir, "repl-dir", "", "directory for the replicated oplog (enables replication; mutually exclusive with -waldir)")
	flag.StringVar(&cfg.replListen, "repl-listen", "", "address accepting follower replication streams")
	flag.StringVar(&cfg.replFollow, "repl-follow", "", "primary replication address to follow (serve as a read replica)")
	flag.BoolVar(&cfg.replPrimary, "repl-primary", false, "take the primary role at startup")
	flag.StringVar(&cfg.replID, "repl-id", "", "node id in acks and logs (default: the -listen address)")
	flag.StringVar(&cfg.replAck, "repl-ack", "none", "write acknowledgment mode: none | one | quorum")
	flag.IntVar(&cfg.replReplicas, "repl-replicas", 0, "expected follower count (the quorum denominator for -repl-ack=quorum)")
	flag.DurationVar(&cfg.replAckTimeout, "repl-ack-timeout", 5*time.Second, "max wait for the ack quorum (0 = wait forever)")
	flag.StringVar(&cfg.replAdvertise, "repl-advertise", "", "client-facing address replicas redirect writes to while primary (default: -listen)")
	flag.DurationVar(&cfg.replHeartbeat, "repl-heartbeat", time.Second, "primary commit-watermark heartbeat cadence (0 = off)")
	flag.DurationVar(&cfg.replIdle, "repl-idle-timeout", 5*time.Second, "follower stream liveness timeout before redialing (0 = off)")
	flag.Parse()
	cfg.csvs = csvs

	if *version {
		fmt.Println("qss", obs.Version())
		return
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "qss:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	sources := make(map[string]wrapper.Source)

	// Demo guide: a mutable source evolved by a background goroutine.
	ev := guidegen.NewEvolver(cfg.seed, cfg.guideN)
	guideSrc := wrapper.NewMutable(ev.DB)
	sources["guide"] = guideSrc

	// Demo library.
	sim := library.New(cfg.seed, cfg.libN)
	libSrc := wrapper.NewMutable(sim.DB())
	sources["library"] = libSrc

	for _, spec := range cfg.csvs {
		name, src, err := parseCSVSpec(spec)
		if err != nil {
			return err
		}
		sources[name] = src
	}

	// Chaos mode: wrap every source with seeded, reproducible fault
	// injection to exercise the retry/health machinery end to end.
	if cfg.chaosErrRate > 0 || cfg.chaosLatency > 0 {
		for name, src := range sources {
			sources[name] = faults.NewSource(src,
				faults.Random(cfg.chaosSeed, cfg.chaosErrRate, cfg.chaosLatency))
		}
		fmt.Printf("qss: chaos on (seed=%d error-rate=%g latency<=%s)\n",
			cfg.chaosSeed, cfg.chaosErrRate, cfg.chaosLatency)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background evolution of the demo sources, stopped on shutdown.
	rng := rand.New(rand.NewSource(cfg.seed))
	go func() {
		t := time.NewTicker(cfg.evolve)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
			guideSrc.Mutate(func(db *oem.Database) error {
				ev.DB = db
				ev.Step(2 + rng.Intn(4))
				return nil
			})
			libSrc.Mutate(func(db *oem.Database) error {
				sim.SetDB(db)
				sim.Step(1 + rng.Intn(3))
				return nil
			})
		}
	}()

	ln, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	fmt.Printf("qss: listening on %s (sources: %s)\n", ln.Addr(), sourceNames(sources))
	srv := qss.NewServerWith(sources, qss.RealClock{}, qss.ServerConfig{
		Retry: qss.RetryPolicy{
			Initial:       cfg.retryInitial,
			Max:           cfg.retryMax,
			DegradedAfter: cfg.degradedAfter,
			SuspendAfter:  cfg.suspendAfter,
			Probe:         cfg.probe,
		},
		Seed:              cfg.seed,
		HeartbeatInterval: cfg.heartbeat,
		IdleTimeout:       cfg.idleTimeout,
		WriteTimeout:      cfg.writeTimeout,
		MaxMessage:        cfg.maxMsg,
		Linger:            cfg.linger,
	})
	if cfg.walDir != "" {
		var pol wal.SyncPolicy
		switch cfg.walSync {
		case "always":
			pol = wal.SyncAlways
		case "interval":
			pol = wal.SyncInterval
		case "never":
			pol = wal.SyncNever
		default:
			return fmt.Errorf("bad -walsync %q (want always, interval, or never)", cfg.walSync)
		}
		if err := srv.EnableWAL(cfg.walDir, &wal.Options{Sync: pol}); err != nil {
			return err
		}
		fmt.Printf("qss: logging subscriptions under %s (sync=%s)\n", cfg.walDir, cfg.walSync)
	}

	// Replication: subscription history lives on a replicated oplog (see
	// docs/replication.md) instead of per-subscription logs.
	var node *repl.Node
	if cfg.replDir == "" {
		for flagName, set := range map[string]bool{
			"-repl-listen":  cfg.replListen != "",
			"-repl-follow":  cfg.replFollow != "",
			"-repl-primary": cfg.replPrimary,
		} {
			if set {
				return fmt.Errorf("%s requires -repl-dir", flagName)
			}
		}
	} else {
		if cfg.walDir != "" {
			return fmt.Errorf("-repl-dir is mutually exclusive with -waldir")
		}
		if cfg.replPrimary && cfg.replFollow != "" {
			return fmt.Errorf("-repl-primary and -repl-follow are mutually exclusive")
		}
		ack, err := repl.ParseAckMode(cfg.replAck)
		if err != nil {
			return err
		}
		id := cfg.replID
		if id == "" {
			id = cfg.listen
		}
		advertise := cfg.replAdvertise
		if advertise == "" {
			advertise = cfg.listen
		}
		node, err = repl.Open(cfg.replDir, qss.NewReplState(srv.Service()), repl.Config{
			ID:             id,
			Ack:            ack,
			Replicas:       cfg.replReplicas,
			AckTimeout:     cfg.replAckTimeout,
			Advertise:      advertise,
			HeartbeatEvery: cfg.replHeartbeat,
			IdleTimeout:    cfg.replIdle,
		})
		if err != nil {
			return err
		}
		defer node.Close()
		if err := srv.EnableReplication(node); err != nil {
			return err
		}
		if cfg.replListen != "" {
			rln, err := net.Listen("tcp", cfg.replListen)
			if err != nil {
				return fmt.Errorf("repl: %w", err)
			}
			defer rln.Close()
			go node.Serve(rln)
			fmt.Printf("qss: replication streams on %s\n", rln.Addr())
		}
		switch {
		case cfg.replPrimary:
			if err := node.Promote(); err != nil {
				return err
			}
		case cfg.replFollow != "":
			target := cfg.replFollow
			if err := node.Follow(func() (net.Conn, error) {
				return net.Dial("tcp", target)
			}); err != nil {
				return err
			}
		}
		st := node.Status()
		fmt.Printf("qss: replicated oplog under %s (id=%s role=%s epoch=%d ack=%s advertise=%s)\n",
			cfg.replDir, id, st.Role, st.Epoch, ack, advertise)
	}

	// Opt-in admin endpoint: metrics (JSON + Prometheus text), health with
	// per-subscription poll states, and pprof. Collection is enabled only
	// when the endpoint is served, so the default run pays one atomic
	// branch per metric touch. Bind to localhost unless fronted by
	// something that authenticates (see docs/observability.md).
	var adminSrv *http.Server
	if cfg.admin != "" {
		obs.SetEnabled(true)
		aln, err := net.Listen("tcp", cfg.admin)
		if err != nil {
			return fmt.Errorf("admin: %w", err)
		}
		mux := obs.NewAdminMux(obs.AdminOptions{
			Registry: obs.Default,
			Health: func() (string, map[string]any) {
				states := srv.HealthStates()
				status := "ok"
				for _, st := range states {
					if st == qss.Suspended.String() {
						status = "degraded"
					}
				}
				details := map[string]any{
					"subscriptions": states,
					"orphaned":      srv.Orphaned(),
				}
				if node != nil {
					st := node.Status()
					details["repl"] = map[string]any{
						"role":    st.Role.String(),
						"epoch":   st.Epoch,
						"fenced":  st.Fenced,
						"applied": st.Applied,
						"commit":  st.Commit,
						"lag_seq": st.LagSeq,
						"primary": st.PrimaryAddr,
					}
					if st.Fenced {
						status = "degraded"
					}
				}
				return status, details
			},
		})
		if node != nil {
			// Failover runbook endpoint: promote this node to primary (see
			// docs/replication.md). Epoch fencing makes the deposed primary's
			// appends fail once any follower or client carries the news.
			mux.HandleFunc("/promote", func(w http.ResponseWriter, r *http.Request) {
				if r.Method != http.MethodPost {
					http.Error(w, "POST only", http.StatusMethodNotAllowed)
					return
				}
				if err := node.Promote(); err != nil {
					http.Error(w, err.Error(), http.StatusConflict)
					return
				}
				st := node.Status()
				fmt.Fprintf(w, "{\"role\":%q,\"epoch\":%d}\n", st.Role, st.Epoch)
			})
		}
		adminSrv = &http.Server{Handler: mux}
		go func() { _ = adminSrv.Serve(aln) }()
		fmt.Printf("qss: admin endpoint on http://%s (/metrics, /healthz, /debug/pprof)\n", aln.Addr())
	}

	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.Serve(ln)
	}()
	select {
	case <-ctx.Done():
		// Graceful shutdown: stop pollers, give clients the drain window,
		// flush and close the WAL.
		fmt.Println("qss: shutting down")
		srv.Shutdown(cfg.drain)
		<-served
	case <-served:
		srv.Close()
	}
	if adminSrv != nil {
		_ = adminSrv.Close()
	}
	return nil
}

func parseCSVSpec(spec string) (string, wrapper.Source, error) {
	eq := strings.IndexByte(spec, '=')
	if eq < 0 {
		return "", nil, fmt.Errorf("bad -csv spec %q (want NAME=PATH:KEY:ROW)", spec)
	}
	name := spec[:eq]
	parts := strings.Split(spec[eq+1:], ":")
	if len(parts) != 3 {
		return "", nil, fmt.Errorf("bad -csv spec %q (want NAME=PATH:KEY:ROW)", spec)
	}
	path, key, row := parts[0], parts[1], parts[2]
	src := wrapper.NewCSV(row, key, func() (string, error) {
		data, err := os.ReadFile(path)
		return string(data), err
	})
	return name, src, nil
}

func sourceNames(m map[string]wrapper.Source) string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	return strings.Join(names, ", ")
}
