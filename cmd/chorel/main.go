// Command chorel is an interactive query shell for OEM and DOEM databases:
// the reproduction's analogue of the Lore query interface, speaking Chorel.
//
// Usage:
//
//	chorel [-store DIR] [-seal-anns N] [-seal-age D] [-translate] [-explain] [-strategy direct|translated] [QUERY...]
//
// With no QUERY arguments, chorel reads queries from standard input, one
// per line. The built-in demo database "guide" (the paper's running
// example, Figures 2-4) is always registered; databases from -store are
// registered under their stored names.
//
// Stored DOEM databases live in time-partitioned segment stores
// (lore.OpenSegmented): queries run over the merged history graph,
// -strategy translated and .history over the whole history replayed from
// the segments, and update statements append to the store's log, so they
// persist.
// -seal-anns and -seal-age tune the auto-seal policy; see
// docs/segments.md.
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
	"repro/internal/lore"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/segment"
	"repro/internal/timestamp"
)

func main() {
	storeDir := flag.String("store", "", "database store directory to load")
	sealAnns := flag.Int("seal-anns", 0, "with -store: auto-seal the active segment after this many annotations (0 = manual)")
	sealAge := flag.Duration("seal-age", 0, "with -store: auto-seal the active segment after this much history time (0 = off)")
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
	if err := run(*storeDir, pol, *translate, *explain, *strategy, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "chorel:", err)
		os.Exit(1)
	}
}

// session holds the databases queries and updates address: the demo
// guide, a plain DOEM database, and the -store directory's store, whose
// DOEM databases queries read through their segment stores' merged graphs
// and updates reach through ApplySet, so they persist.
type session struct {
	eng      *lorel.Engine
	guide    *doem.Database
	store    *lore.Store // nil without -store
	strategy string
}

// openSession registers the demo guide and, when storeDir is set, every
// database stored there.
func openSession(storeDir string, pol *segment.Policy, strategy string) (*session, error) {
	s := &session{eng: lorel.NewEngine(), strategy: strategy}

	// The paper's running example is always available as "guide".
	g, ids := guidegen.PaperGuide()
	d, err := doem.FromHistory(g, guidegen.PaperHistory(ids))
	if err != nil {
		return nil, err
	}
	s.guide = d
	s.eng.Register("guide", d)
	if storeDir == "" {
		return s, nil
	}

	if s.store, err = lore.OpenSegmented(storeDir, nil, pol); err != nil {
		return nil, err
	}
	for _, name := range s.store.List() {
		// Queries range over the merged sealed+active history.
		st, _ := s.store.SegmentStore(name)
		s.eng.Register(name, st.Graph())
	}
	return s, nil
}

// close releases the -store directory's store.
func (s *session) close() error {
	if s.store == nil {
		return nil
	}
	return s.store.Close()
}

func run(storeDir string, pol *segment.Policy, translate, explain bool, strategy string, queries []string) error {
	if strategy != "direct" && strategy != "translated" {
		return fmt.Errorf("unknown strategy %q", strategy)
	}
	s, err := openSession(storeDir, pol, strategy)
	if err != nil {
		return err
	}
	defer s.close()

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
			d, err := s.whole(strings.TrimSpace(strings.TrimPrefix(line, ".history ")))
			if err != nil {
				fmt.Println("error:", err)
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
	// A stored database's segment store knows its id high-water mark
	// (which covers ids a truncation dropped) and newest step without
	// replaying its history.
	seg, stored := s.segmentStore(name)
	var next oem.NodeID
	var last timestamp.Time
	switch {
	case stored:
		next, last = seg.MaxID(), seg.LastStep()
	case name == "guide":
		next, last = s.guide.MaxID(), s.guide.LastStep()
	default:
		return fmt.Errorf("%q is not a DOEM database", name)
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
	now := timestamp.FromTime(time.Now())
	if !now.After(last) {
		now = last.Add(time.Second)
	}
	if stored {
		err = s.store.ApplySet(name, now, set)
	} else {
		err = s.guide.Apply(now, set)
	}
	if err != nil {
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

// segmentStore returns the segment store of a DOEM database of the -store
// directory.
func (s *session) segmentStore(name string) (*segment.Store, bool) {
	if s.store == nil {
		return nil, false
	}
	return s.store.SegmentStore(name)
}

// whole returns the named DOEM database with its entire history: for a
// stored one, a copy replayed from its segment store; otherwise the demo
// guide itself.
func (s *session) whole(name string) (*doem.Database, error) {
	if _, ok := s.segmentStore(name); ok {
		return s.store.GetDOEM(name)
	}
	if name == "guide" {
		return s.guide, nil
	}
	return nil, fmt.Errorf("%q is not a DOEM database", name)
}

func (s *session) runQuery(q string) error {
	res, err := s.query(q)
	if err != nil {
		return err
	}
	fmt.Print(res)
	return nil
}

func (s *session) query(q string) (*lorel.Result, error) {
	if s.strategy == "translated" {
		// Translate and run over the encoding of the addressed DOEM
		// database; fall back to direct evaluation when the query is
		// untranslatable (wildcards, virtual annotations).
		if name := s.addressedDOEM(q); name != "" {
			d, err := s.whole(name)
			if err != nil {
				return nil, err
			}
			if res, err := chorel.New(name, d).QueryTranslated(q); err == nil {
				return res, nil
			}
		}
	}
	return s.eng.Query(q)
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
		if _, stored := s.segmentStore(p.Head); name == "" && (stored || p.Head == "guide") {
			name = p.Head
		}
	})
	return name
}
