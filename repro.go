// Package repro is a from-scratch Go reproduction of "Representing and
// Querying Changes in Semistructured Data" (Chawathe, Abiteboul, Widom,
// ICDE 1998): the DOEM change representation model for OEM semistructured
// databases, the Chorel change query language, the DOEM-in-OEM encoding
// with Chorel-to-Lorel translation, snapshot differencing, and the Query
// Subscription Service.
//
// This root package is a curated facade over the implementation packages;
// see the package documentation of internal/oem, internal/doem,
// internal/lorel, internal/chorel, internal/oemdiff and internal/qss for
// the full surfaces.
//
// A minimal session:
//
//	db := repro.NewOEM()
//	guide := db.Root()
//	r := db.CreateNode(repro.Complex())
//	_ = db.AddArc(guide, "restaurant", r)
//	n := db.CreateNode(repro.Str("Bangkok Cuisine"))
//	_ = db.AddArc(r, "name", n)
//
//	cdb := repro.Open("guide", db)
//	_ = cdb.Apply(repro.MustParseTime("1Jan97"), repro.ChangeSet{
//		repro.UpdNode{Node: n, Value: repro.Str("Bangkok Cuisine II")},
//	})
//	res, _ := cdb.Query(`select N, NV from guide.restaurant.name<upd to NV>, guide.restaurant.name N`)
//	fmt.Println(res)
package repro

import (
	"fmt"

	"repro/internal/change"
	"repro/internal/chorel"
	"repro/internal/doem"
	"repro/internal/encoding"
	"repro/internal/lore"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/oemdiff"
	"repro/internal/qss"
	"repro/internal/timestamp"
	"repro/internal/trigger"
	"repro/internal/value"
	"repro/internal/wrapper"
)

// Data model types.
type (
	// OEM is an Object Exchange Model database (paper Section 2).
	OEM = oem.Database
	// NodeID identifies an object within a database.
	NodeID = oem.NodeID
	// Arc is a labeled object-subobject arc.
	Arc = oem.Arc
	// Value is an atomic value or the complex marker C.
	Value = value.Value
	// Time is an instant of the history time domain.
	Time = timestamp.Time

	// DOEM is a Delta-OEM database: an OEM graph with change annotations
	// (paper Section 3).
	DOEM = doem.Database

	// ChangeSet is a set of basic change operations applied atomically.
	ChangeSet = change.Set
	// History is a time-ordered sequence of change sets (Definition 2.2).
	History = change.History
	// Step is one (timestamp, change set) element of a history.
	Step = change.Step
	// CreNode, UpdNode, AddArc and RemArc are the four basic change
	// operations of Section 2.1.
	CreNode = change.CreNode
	UpdNode = change.UpdNode
	AddArc  = change.AddArc
	RemArc  = change.RemArc

	// DB is an OEM database under change management: DOEM history plus
	// Chorel querying with both execution strategies.
	DB = chorel.DB
	// Engine evaluates Lorel/Chorel queries over registered databases.
	Engine = lorel.Engine
	// Result is a query result.
	Result = lorel.Result
	// Store is a named-database store (the Lore stand-in).
	Store = lore.Store

	// Source is a pollable information source (a Tsimmis-wrapper stand-in).
	Source = wrapper.Source
	// Subscription is a QSS standing query <frequency, polling, filter>.
	Subscription = qss.Subscription
	// Notification is a QSS filter-query delivery.
	Notification = qss.Notification
	// QSS is the Query Subscription Service core.
	QSS = qss.Service

	// Trigger is an event-condition-action rule over a change-managed
	// database (the paper's Section 7 trigger-language extension).
	Trigger = trigger.Trigger
	// Firing describes one trigger activation.
	Firing = trigger.Firing
	// TriggerManager owns a DOEM database and its triggers.
	TriggerManager = trigger.Manager
)

// Value constructors.
var (
	// Complex returns the reserved complex-object marker C.
	Complex = value.Complex
	// Null returns the null atomic value.
	Null = value.Null
	// Bool returns a boolean atomic value.
	Bool = value.Bool
	// Int returns an integer atomic value.
	Int = value.Int
	// Real returns a real atomic value.
	Real = value.Real
	// Str returns a string atomic value.
	Str = value.Str
	// TimeValue returns a timestamp atomic value.
	TimeValue = value.Time
)

// Time constructors.
var (
	// ParseTime parses a textual timestamp ("1Jan97", RFC 3339, ...).
	ParseTime = timestamp.Parse
	// MustParseTime is ParseTime that panics on error.
	MustParseTime = timestamp.MustParse
	// NegInf and PosInf are the infinite instants.
	NegInf = timestamp.NegInf
	PosInf = timestamp.PosInf
)

// NewOEM creates an empty OEM database (a complex root object only).
func NewOEM() *OEM { return oem.New() }

// NewDOEM places a copy of an OEM snapshot under change tracking with an
// empty annotation set.
func NewDOEM(o *OEM) *DOEM { return doem.New(o) }

// BuildDOEM constructs D(O, H): the DOEM database representing snapshot o
// and history h (paper Section 3.1).
func BuildDOEM(o *OEM, h History) (*DOEM, error) { return doem.FromHistory(o, h) }

// Open places an OEM database under change management with an empty
// history; queries address it by name. The database is cloned; subsequent
// changes go through DB.Apply, DB.ApplySnapshot or DB.Update.
func Open(name string, initial *OEM) *DB { return chorel.New(name, doem.New(initial)) }

// OpenWithHistory opens a database with a pre-existing history,
// constructing D(O, H) per the paper's Section 3.1.
func OpenWithHistory(name string, initial *OEM, h History) (*DB, error) {
	d, err := doem.FromHistory(initial, h)
	if err != nil {
		return nil, err
	}
	return chorel.New(name, d), nil
}

// OpenStore opens (or creates) a database store rooted at dir. A store
// needs a directory: an empty dir is refused.
func OpenStore(dir string) (*Store, error) { return lore.Open(dir) }

// LoadDB opens a copy of a change-managed database previously saved in a
// store, with its whole history; save it again to persist later changes.
func LoadDB(store *Store, name string) (*DB, error) {
	d, err := store.GetDOEM(name)
	if err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return chorel.New(name, d), nil
}

// NewEngine returns an empty query engine; register databases with
// Engine.Register.
func NewEngine() *Engine { return lorel.NewEngine() }

// WrapOEM adapts a plain OEM database for registration with an Engine.
func WrapOEM(db *OEM) lorel.Graph { return lorel.NewOEMGraph(db) }

// DiffSnapshots infers the change set between two snapshots that share
// object identity (paper Section 6's OEMdiff, identity mode).
func DiffSnapshots(old, new *OEM) (ChangeSet, error) { return oemdiff.DiffIdentity(old, new) }

// DiffSnapshotsMatched infers the change set between two snapshots without
// shared identity, matching objects structurally.
func DiffSnapshotsMatched(old, new *OEM) (ChangeSet, error) { return oemdiff.Diff(old, new, nil) }

// NewQSS returns a Query Subscription Service delivering notifications
// through fn.
func NewQSS(fn func(Notification)) *QSS { return qss.NewService(fn) }

// NewMutableSource wraps a live OEM database as a stable-identity,
// copy-on-write source. The source owns db from then on: change it only
// through Mutate, whose function must change only the database it is
// passed, since a polled version stays shared with its readers.
func NewMutableSource(db *OEM) *wrapper.Mutable { return wrapper.NewMutable(db) }

// ParseFreq parses a textual frequency specification ("every 10 minutes",
// "every Friday at 5:00pm").
func ParseFreq(s string) (qss.Freq, error) { return qss.ParseFreq(s) }

// NewTriggerManager wraps a DOEM database for ECA trigger processing;
// queries address it by name.
func NewTriggerManager(name string, d *DOEM) *TriggerManager {
	return trigger.NewManager(name, d)
}

// Encode builds the Section 5.1 OEM encoding of a DOEM database; Decode
// inverts it (up to node-id renaming).
var (
	Encode = encoding.Encode
	Decode = encoding.Decode
)
