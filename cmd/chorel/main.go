// Command chorel is an interactive query shell for OEM and DOEM databases:
// the reproduction's analogue of the Lore query interface, speaking Chorel.
//
// Usage:
//
//	chorel [-store DIR] [-segments] [-translate] [-explain] [-strategy direct|translated] [QUERY...]
//
// With no QUERY arguments, chorel reads queries from standard input, one
// per line. The built-in demo database "guide" (the paper's running
// example, Figures 2-4) is always registered; databases from -store are
// registered under their stored names.
//
// -segments opens the store in segmented mode (lore.OpenSegmented):
// DOEM databases live in time-partitioned segment stores, queries run
// over the merged history graph, and update statements append to the
// active segment. -seal-anns and -seal-age tune the auto-seal policy;
// see docs/segments.md.
//
// -explain prints the Chorel→Lorel rewrite plan (rule-by-rule rewrite
// trace plus the generated Lorel query; see docs/observability.md) and the
// cost-based planner's decisions (join order, pushed predicates,
// estimated cardinalities; see docs/planner.md) instead of evaluating.
// -version prints build information.
//
// Shell commands: .list (databases), .translate QUERY (show the Lorel
// translation of a Chorel query, Section 5.2), .explain QUERY (show the
// rewrite plan), .history NAME, .quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/chorel"
	"repro/internal/doem"
	"repro/internal/guidegen"
	"repro/internal/index"
	"repro/internal/lore"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/segment"
	"repro/internal/timestamp"
)

func main() {
	storeDir := flag.String("store", "", "database store directory to load")
	segments := flag.Bool("segments", false, "open -store in segmented mode (time-partitioned DOEM history; see docs/segments.md)")
	sealAnns := flag.Int("seal-anns", 0, "with -segments: auto-seal the active segment after this many annotations (0 = manual)")
	sealAge := flag.Duration("seal-age", 0, "with -segments: auto-seal the active segment after this much history time (0 = off)")
	translate := flag.Bool("translate", false, "print the Lorel translation instead of evaluating")
	explain := flag.Bool("explain", false, "print the Chorel→Lorel rewrite plan instead of evaluating")
	strategy := flag.String("strategy", "direct", "execution strategy: direct or translated")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println("chorel", obs.Version())
		return
	}
	var pol *segment.Policy
	if *sealAnns > 0 || *sealAge > 0 {
		pol = &segment.Policy{SealAnnotations: *sealAnns, SealAge: *sealAge}
	}
	if err := run(*storeDir, *segments, pol, *translate, *explain, *strategy, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "chorel:", err)
		os.Exit(1)
	}
}

type session struct {
	eng   *lorel.Engine
	doems map[string]*doem.Database
	// store is set when -store names a directory; updates to stored DOEM
	// databases go through it so they are persisted (and, in segmented
	// mode, land in the right active segment).
	store    *lore.Store
	strategy string
}

func run(storeDir string, segmented bool, pol *segment.Policy, translate, explain bool, strategy string, queries []string) error {
	if strategy != "direct" && strategy != "translated" {
		return fmt.Errorf("unknown strategy %q", strategy)
	}
	if segmented && storeDir == "" {
		return fmt.Errorf("-segments needs -store")
	}
	s := &session{eng: lorel.NewEngine(), doems: make(map[string]*doem.Database), strategy: strategy}

	// The paper's running example is always available as "guide".
	g, ids := guidegen.PaperGuide()
	d, err := doem.FromHistory(g, guidegen.PaperHistory(ids))
	if err != nil {
		return err
	}
	s.register("guide", d)

	if storeDir != "" {
		var store *lore.Store
		if segmented {
			store, err = lore.OpenSegmented(storeDir, nil, pol)
		} else {
			store, err = lore.Open(storeDir)
		}
		if err != nil {
			return err
		}
		defer store.Close()
		s.store = store
		for _, ent := range store.List() {
			switch ent.Kind {
			case "doem":
				dd, err := store.GetDOEM(ent.Name)
				if err != nil {
					return err
				}
				s.register(ent.Name, dd)
				if st, ok := store.SegmentStore(ent.Name); ok {
					// Queries range over the merged sealed+active history,
					// not just the active segment.
					s.eng.Register(ent.Name, st.Graph())
				}
			case "oem":
				db, err := store.GetOEM(ent.Name)
				if err != nil {
					return err
				}
				s.eng.Register(ent.Name, lorel.NewOEMGraph(db))
			}
		}
	}

	if len(queries) > 0 {
		for _, q := range queries {
			if explain {
				out, err := s.explain(q)
				if err != nil {
					return err
				}
				fmt.Print(out)
				continue
			}
			if translate {
				out, err := chorel.TranslateString(q)
				if err != nil {
					return err
				}
				fmt.Println(out)
				continue
			}
			if err := s.runQuery(q); err != nil {
				return err
			}
		}
		return nil
	}

	fmt.Println("chorel shell — DOEM/Chorel reproduction (paper database registered as 'guide')")
	fmt.Println("enter queries, or .help")
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("chorel> ")
		if !sc.Scan() {
			fmt.Println()
			return sc.Err()
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == ".quit" || line == ".exit":
			return nil
		case line == ".help":
			fmt.Println(".list | .translate QUERY | .explain QUERY | .history NAME | .quit")
			fmt.Println("update/insert/delete statements apply to the addressed DOEM database at the current time")
		case hasVerb(line, "update") || hasVerb(line, "insert") || hasVerb(line, "delete"):
			if err := s.runUpdate(line); err != nil {
				fmt.Println("error:", err)
			}
		case line == ".list":
			for _, n := range s.eng.Names() {
				fmt.Println(" ", n)
			}
		case strings.HasPrefix(line, ".translate "):
			out, err := chorel.TranslateString(strings.TrimPrefix(line, ".translate "))
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println(out)
		case strings.HasPrefix(line, ".explain ") || hasVerb(line, "explain"):
			q := strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(line, ".explain"), "explain"))
			out, err := s.explain(q)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Print(out)
		case strings.HasPrefix(line, ".history "):
			name := strings.TrimSpace(strings.TrimPrefix(line, ".history "))
			d, ok := s.doems[name]
			if !ok {
				fmt.Printf("no DOEM database %q\n", name)
				continue
			}
			fmt.Println(d.ExtractHistory())
		default:
			if err := s.runQuery(line); err != nil {
				fmt.Println("error:", err)
			}
		}
	}
}

func hasVerb(line, verb string) bool {
	return strings.HasPrefix(strings.ToLower(line), verb+" ")
}

// runUpdate compiles an update statement and applies it to the DOEM
// database its target addresses, timestamped now.
func (s *session) runUpdate(stmt string) error {
	parsed, err := lorel.ParseUpdate(stmt)
	if err != nil {
		return err
	}
	name := parsed.Target.Head
	d, ok := s.doems[name]
	if !ok {
		return fmt.Errorf("%q is not a DOEM database (updates need change tracking)", name)
	}
	var seg *segment.Store
	if s.store != nil {
		seg, _ = s.store.SegmentStore(name)
	}
	next := d.MaxID()
	if seg != nil {
		// The active segment forgets ids garbage-collected in sealed
		// intervals; the store's high-water mark spans all history.
		if id, err := s.store.MaxID(name); err == nil && id > next {
			next = id
		}
	}
	set, err := s.eng.CompileUpdate(parsed, func() oem.NodeID {
		next++
		return next
	})
	if err != nil {
		return err
	}
	if len(set) == 0 {
		fmt.Println("no matches; nothing applied")
		return nil
	}
	last := d.LastStep()
	if seg != nil && seg.LastSeal().After(last) {
		last = seg.LastSeal()
	}
	now := timestamp.FromTime(time.Now())
	if !now.After(last) {
		now = last.Add(time.Second)
	}
	if seg != nil {
		// Segmented store: the append must go through the store so it hits
		// the active segment's tail log and the auto-seal policy.
		if err := s.store.ApplySet(name, now, set); err != nil {
			return err
		}
		if dd, err := s.store.GetDOEM(name); err == nil {
			s.doems[name] = dd // a seal may have swapped the active database
		}
	} else if err := d.Apply(now, set); err != nil {
		return err
	}
	fmt.Printf("applied %d operation(s) at %s\n", len(set), now)
	return nil
}

// explain renders the full EXPLAIN for a query: the Chorel→Lorel rewrite
// plan plus the cost-based planner's decisions against the session's
// registered graphs (join order, pushed predicates, estimates).
func (s *session) explain(q string) (string, error) {
	pl, err := chorel.ExplainQueryOn(s.eng, q)
	if err != nil {
		return "", err
	}
	return pl.String(), nil
}

func (s *session) register(name string, d *doem.Database) {
	s.doems[name] = d
	s.eng.Register(name, index.NewGraph(d))
}

func (s *session) runQuery(q string) error {
	if s.strategy == "translated" {
		// Translate and run over the encoding of the addressed DOEM
		// database; fall back to direct evaluation when the query is
		// untranslatable (wildcards, virtual annotations).
		if name := s.addressedDOEM(q); name != "" {
			res, err := chorel.New(name, s.doems[name]).QueryTranslated(q)
			if err == nil {
				fmt.Print(res)
				return nil
			}
		}
	}
	res, err := s.eng.Query(q)
	if err != nil {
		return err
	}
	fmt.Print(res)
	return nil
}

// addressedDOEM parses the query and returns the first path head that
// names a registered DOEM database.
func (s *session) addressedDOEM(q string) string {
	parsed, err := lorel.Parse(q)
	if err != nil {
		return ""
	}
	name := ""
	parsed.WalkPaths(func(p *lorel.PathExpr) {
		if name == "" {
			if _, ok := s.doems[p.Head]; ok {
				name = p.Head
			}
		}
	})
	return name
}
