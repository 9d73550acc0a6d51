package chorel

import (
	"context"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/encoding"
	"repro/internal/index"
	"repro/internal/lore"
	"repro/internal/lorel"
	"repro/internal/obs"
	"repro/internal/oem"
	"repro/internal/oemdiff"
	"repro/internal/timestamp"
	"repro/internal/value"
)

// DB is an OEM database under change management: its history is kept as a
// DOEM database and queried with Chorel through both of the paper's
// execution strategies — direct evaluation on the annotated graph, and
// translation to Lorel over the Section 5.1 OEM encoding. Changes arrive as
// basic change operations (Apply), as a next snapshot (ApplySnapshot,
// through OEMdiff), or as Lorel update statements (Update).
type DB struct {
	name   string
	d      *doem.Database
	direct *lorel.Engine

	// polls are the QSS polling times t[-i] resolves against; every
	// translation engine is built with them.
	polls []timestamp.Time

	// Lazily built translation-side state; discarded by Apply.
	enc   *encoding.Encoding
	trans *lorel.Engine
}

// New wraps a DOEM database for querying under the given name (the head of
// path expressions, e.g. "guide"). The direct engine queries d through an
// index.Graph, which memoizes <at T> views. Changes must go through the DB
// (Apply, ApplySnapshot, Update) so the encoding follows them.
func New(name string, d *doem.Database) *DB {
	db := &DB{name: name, d: d, direct: lorel.NewEngine()}
	db.direct.Register(name, index.NewGraph(d))
	return db
}

// Name returns the query name of the database.
func (db *DB) Name() string { return db.name }

// DOEM returns the underlying DOEM database.
func (db *DB) DOEM() *doem.Database { return db.d }

// Current returns the current snapshot (live; do not modify).
func (db *DB) Current() *oem.Database { return db.d.Current() }

// SnapshotAt materializes the database as of time t.
func (db *DB) SnapshotAt(t timestamp.Time) *oem.Database { return db.d.SnapshotAt(t) }

// History extracts the recorded history H(D).
func (db *DB) History() change.History { return db.d.ExtractHistory() }

// Save persists the database into a lore store under its name. A store
// with a directory keeps its own copy: a later Apply, ApplySnapshot or
// Update changes only the DB and is persisted by saving again.
func (db *DB) Save(store *lore.Store) error { return store.PutDOEM(db.name, db.d) }

// Engine returns the direct-evaluation engine, for registering additional
// databases.
func (db *DB) Engine() *lorel.Engine { return db.direct }

// SetPollTimes installs the QSS polling times in both engines.
func (db *DB) SetPollTimes(times []timestamp.Time) {
	db.polls = append([]timestamp.Time(nil), times...)
	db.direct.SetPollTimes(times)
	if db.trans != nil {
		db.trans.SetPollTimes(times)
	}
}

// Apply records a set of basic change operations at time t. The database
// updates its own access paths; the cached OEM encoding is discarded and
// rebuilt on the next translated query.
func (db *DB) Apply(t timestamp.Time, ops change.Set) error {
	if err := db.d.Apply(t, ops); err != nil {
		return err
	}
	db.enc = nil
	db.trans = nil
	return nil
}

// ApplySnapshot infers the changes from the current snapshot to next (which
// must share node identity — e.g. a cooperative wrapper's snapshot) and
// records them at time t. It returns the inferred operations; an empty set
// records no step.
func (db *DB) ApplySnapshot(t timestamp.Time, next *oem.Database) (change.Set, error) {
	ops, err := oemdiff.DiffIdentity(db.Current(), next)
	if err != nil || len(ops) == 0 {
		return ops, err
	}
	if err := db.Apply(t, ops); err != nil {
		return nil, err
	}
	return ops, nil
}

// Update compiles a Lorel-style update statement ("update PATH := V where
// ...", "insert ...", "delete ...") against the current snapshot and
// records the resulting basic change operations at time t — the paper's
// "higher-level changes based on the Lorel update language" (Section 2.1).
// It returns the compiled operations; an empty set records no step.
func (db *DB) Update(t timestamp.Time, stmt string) (change.Set, error) {
	next := db.d.MaxID()
	set, err := db.direct.Update(stmt, func() oem.NodeID {
		next++
		return next
	})
	if err != nil || len(set) == 0 {
		return set, err
	}
	if err := db.Apply(t, set); err != nil {
		return nil, err
	}
	return set, nil
}

// Encoding returns (building if needed) the OEM encoding of the database.
func (db *DB) Encoding() *encoding.Encoding {
	if db.enc == nil {
		db.enc = encoding.Encode(db.d)
		db.trans = lorel.NewEngine()
		db.trans.Register(db.name, lorel.NewOEMGraph(db.enc.DB))
		db.trans.SetPollTimes(db.polls)
	}
	return db.enc
}

// Query evaluates a Chorel query directly on the DOEM database.
func (db *DB) Query(src string) (*lorel.Result, error) {
	return db.direct.Query(src)
}

// QueryContext is Query with cancellation.
func (db *DB) QueryContext(ctx context.Context, src string) (*lorel.Result, error) {
	return db.direct.QueryContext(ctx, src)
}

// QueryTranslated translates the query to plain Lorel and evaluates it on
// the OEM encoding — the paper's "on top of Lore" strategy. Node cells in
// the result reference encoding objects; use MapToDOEM to compare against
// direct results.
func (db *DB) QueryTranslated(src string) (*lorel.Result, error) {
	return db.QueryTranslatedContext(context.Background(), src)
}

// QueryTranslatedContext is QueryTranslated with cancellation.
func (db *DB) QueryTranslatedContext(ctx context.Context, src string) (*lorel.Result, error) {
	tr := obs.TraceFrom(ctx)
	sp := tr.StartSpan("parse")
	q, err := lorel.Parse(src)
	if err != nil {
		sp.EndNote("error=parse")
		return nil, err
	}
	if err := lorel.Canonicalize(q); err != nil {
		sp.EndNote("error=canonicalize")
		return nil, err
	}
	sp.End()
	sp = tr.StartSpan("rewrite")
	tq, steps, err := TranslateTraced(q)
	if err != nil {
		sp.EndNote("error=untranslatable")
		return nil, err
	}
	sp.EndNote("steps=%d", len(steps))
	tr.Add("rewrite_steps", int64(len(steps)))
	// The translator clones and rewrites the canonical AST, which drops
	// the plan-cache key; restamp so the translated query plans too.
	lorel.Rekey(tq)
	db.Encoding()
	return db.trans.EvalContext(ctx, tq)
}

// MapToDOEM maps node ids returned by QueryTranslated (encoding objects)
// back to the DOEM objects they encode.
func (db *DB) MapToDOEM(ids []oem.NodeID) []oem.NodeID {
	enc := db.Encoding()
	out := make([]oem.NodeID, 0, len(ids))
	for _, id := range ids {
		if did, ok := enc.Rev[id]; ok {
			out = append(out, did)
		}
	}
	return out
}

// TranslateString parses, canonicalizes and translates a Chorel query and
// renders the resulting Lorel query as text, in the display style of the
// paper's Example 5.1 (hoisted where-clause generators become nested
// exists).
func TranslateString(src string) (string, error) {
	q, err := lorel.Parse(src)
	if err != nil {
		return "", err
	}
	if err := lorel.Canonicalize(q); err != nil {
		return "", err
	}
	tq, err := Translate(q)
	if err != nil {
		return "", err
	}
	return RenderTranslated(tq), nil
}

// RenderTranslated renders a translated query as parseable Lorel text.
// Existential generators are rendered as nested exists quantifiers over the
// where clause — the paper's own rewriting. (The AST form evaluated by
// Eval additionally binds null for empty generators; the textual exists
// form is strictly existential, as in the paper.)
func RenderTranslated(q *lorel.Query) string {
	display := &lorel.Query{Select: q.Select, From: q.From, Where: q.Where}
	if len(q.WhereGens) > 0 {
		inner := q.Where
		if inner == nil {
			inner = &lorel.ConstExpr{Val: value.Bool(true)}
		}
		for i := len(q.WhereGens) - 1; i >= 0; i-- {
			g := q.WhereGens[i]
			inner = &lorel.ExistsExpr{Var: g.Var, In: g.Path, Cond: inner}
		}
		display.Where = inner
	}
	return display.String()
}
