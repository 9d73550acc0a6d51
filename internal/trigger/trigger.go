// Package trigger implements the event-condition-action trigger language
// the paper sketches as future work (Section 7: "an event-condition-action
// trigger language for OEM based on ideas from DOEM and Chorel").
//
// A trigger watches a change-managed database. Its *event and condition*
// are expressed together as a Chorel query over the DOEM history — the
// event part with annotation expressions restricted to the latest step
// (the step-time variables t[0] and t[-1] are bound exactly as in QSS
// filter queries), the condition as the rest of the where clause. The
// *action* is an arbitrary callback, which may itself apply further
// changes; cascaded firing is depth-limited.
//
// Example — watch for price increases above 25:
//
//	mgr.Add(trigger.Trigger{
//	    Name: "expensive",
//	    Query: `select N, NV from guide.restaurant R, R.name N,
//	            R.price<upd at T to NV> where T > t[-1] and NV > 25`,
//	    Action: func(fire trigger.Firing) error { ... },
//	})
package trigger

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/incr"
	"repro/internal/lorel"
	"repro/internal/timestamp"
)

// Trigger is one ECA rule.
type Trigger struct {
	// Name identifies the trigger.
	Name string
	// Query is the Chorel event+condition: evaluated after every applied
	// change set, with t[0] bound to the new step's timestamp and t[-1]
	// to the previous one. A non-empty result fires the action.
	Query string
	// Action runs once per firing. Returning an error aborts the Apply
	// that caused it (the triggering change set is still applied; cascaded
	// sets after the error are not).
	Action func(Firing) error
}

// Firing describes one trigger activation.
type Firing struct {
	Trigger string
	At      timestamp.Time
	Result  *lorel.Result
	// Depth is the cascade depth: 0 for firings caused directly by an
	// external Apply, increasing for changes applied by trigger actions.
	Depth int
}

// Manager owns a DOEM database and a set of triggers; all changes must
// flow through Manager.Apply so triggers observe them.
type Manager struct {
	name string
	d    *doem.Database
	eng  *lorel.Engine

	mu       sync.Mutex
	triggers map[string]*Trigger
	order    []string
	// fps holds each trigger's fingerprint (internal/incr): Apply
	// evaluates only the triggers the applied delta can affect.
	fps map[string]*incr.Fingerprint
	// MaxCascade bounds recursive firing (actions applying changes that
	// fire more triggers). Default 8.
	MaxCascade int

	// pending holds change sets queued by actions during a cascade.
	pending []pendingSet
	depth   int
}

type pendingSet struct {
	ops change.Set
}

// Errors.
var (
	ErrDuplicate    = errors.New("trigger: trigger already exists")
	ErrNoSuchTrig   = errors.New("trigger: no such trigger")
	ErrCascadeDepth = errors.New("trigger: cascade depth exceeded")
)

// NewManager wraps a DOEM database; queries address it by name.
func NewManager(name string, d *doem.Database) *Manager {
	eng := lorel.NewEngine()
	eng.Register(name, d)
	return &Manager{
		name: name, d: d, eng: eng,
		triggers:   make(map[string]*Trigger),
		fps:        make(map[string]*incr.Fingerprint),
		MaxCascade: 8,
	}
}

// DOEM returns the managed database.
func (m *Manager) DOEM() *doem.Database { return m.d }

// Add registers a trigger; the query must parse.
func (m *Manager) Add(t Trigger) error {
	if t.Name == "" {
		return errors.New("trigger: trigger needs a name")
	}
	if t.Action == nil {
		return errors.New("trigger: trigger needs an action")
	}
	if _, err := lorel.Parse(t.Query); err != nil {
		return fmt.Errorf("trigger: query: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.triggers[t.Name]; dup {
		return fmt.Errorf("%w: %q", ErrDuplicate, t.Name)
	}
	m.triggers[t.Name] = &t
	m.order = append(m.order, t.Name)
	m.fps[t.Name] = m.fingerprint(t.Query)
	return nil
}

// fingerprint statically analyzes a trigger query; queries that fail to
// canonicalize are unanalyzable (always evaluated).
func (m *Manager) fingerprint(src string) *incr.Fingerprint {
	q, err := lorel.Parse(src)
	if err != nil {
		return &incr.Fingerprint{}
	}
	if err := lorel.Canonicalize(q); err != nil {
		return &incr.Fingerprint{}
	}
	return incr.Extract(q, map[string]lorel.Graph{m.name: m.d})
}

// Remove deletes a trigger.
func (m *Manager) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.triggers[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTrig, name)
	}
	delete(m.triggers, name)
	delete(m.fps, name)
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	return nil
}

// List returns trigger names in registration order.
func (m *Manager) List() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.order...)
}

// Apply applies a change set at time t and fires matching triggers.
// Changes queued by actions (via Queue) are applied at strictly later
// synthetic instants and processed recursively up to MaxCascade levels.
func (m *Manager) Apply(t timestamp.Time, ops change.Set) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyLocked(t, ops, 0)
}

// Queue schedules a change set from inside a trigger action. It is applied
// after the current firing completes, one second after the triggering step
// (the time domain is discrete; cascaded steps need fresh instants).
func (m *Manager) Queue(ops change.Set) {
	// Called from actions, which run with m.mu held.
	m.pending = append(m.pending, pendingSet{ops: ops})
}

func (m *Manager) applyLocked(t timestamp.Time, ops change.Set, depth int) error {
	if depth > m.MaxCascade {
		return fmt.Errorf("%w (%d)", ErrCascadeDepth, m.MaxCascade)
	}
	prev := m.d.LastStep()
	if err := m.d.Apply(t, ops); err != nil {
		return err
	}
	mApplies.Inc()
	// Bind t[0] = this step, t[-1] = previous step.
	m.eng.SetPollTimes([]timestamp.Time{orNeg(prev), t})

	// Incremental matching: in name order, evaluate only the triggers the
	// applied delta can affect. Suppressed triggers are exactly those whose
	// query provably returns no rows, so firing behavior is identical to
	// evaluating everything.
	cur := m.d.Current()
	delta := incr.Summarize(ops, cur)
	names := slices.Clone(m.order)
	slices.Sort(names)
	for _, name := range names {
		if !m.fps[name].Affected(delta, cur) {
			mSuppressed.Inc()
			continue
		}
		tr := m.triggers[name]
		mEvaluated.Inc()
		res, err := m.eng.Query(tr.Query)
		if err != nil {
			return fmt.Errorf("trigger %q: %w", name, err)
		}
		if res.Len() == 0 {
			continue
		}
		mFired.Inc()
		if err := tr.Action(Firing{Trigger: name, At: t, Result: res, Depth: depth}); err != nil {
			return fmt.Errorf("trigger %q action: %w", name, err)
		}
	}
	// Drain cascaded changes.
	for len(m.pending) > 0 {
		next := m.pending[0]
		m.pending = m.pending[1:]
		at := m.d.LastStep().Add(1e9) // +1s synthetic instant
		if err := m.applyLocked(at, next.ops, depth+1); err != nil {
			return err
		}
	}
	return nil
}

func orNeg(t timestamp.Time) timestamp.Time {
	if !t.IsFinite() {
		return timestamp.NegInf
	}
	return t
}
