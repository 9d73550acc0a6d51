package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/lore"
	"repro/internal/lorel"
	"repro/internal/oem"
	"repro/internal/timestamp"
)

// ApplyStep is Apply for StoreState-backed nodes: one history step on the
// named database.
func (n *Node) ApplyStep(name string, t timestamp.Time, ops change.Set) (uint64, error) {
	return n.Apply(name, EncodeStep(t, ops))
}

// StoreState is the State the protocol tests replicate into: an in-memory
// lore.Store where each oplog record is a change.Step applied to the named
// DOEM database, and followers serve time-travel (`<at T>`) queries
// straight from the store. Durability comes entirely from the node's
// oplog. (The production State is qss.ReplState.)
type StoreState struct {
	mu    sync.RWMutex
	store *lore.Store
}

// NewStoreState builds an empty in-memory store state.
func NewStoreState() *StoreState {
	st, err := lore.Open("")
	if err != nil {
		// lore.Open("") cannot fail: it performs no I/O.
		panic(err)
	}
	return &StoreState{store: st}
}

// EncodeStep encodes one history step as StoreState record data.
func EncodeStep(t timestamp.Time, ops change.Set) []byte {
	return change.AppendStep(nil, change.Step{At: t, Ops: ops})
}

// Reset implements State.
func (s *StoreState) Reset() error {
	st, err := lore.Open("")
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.store = st
	s.mu.Unlock()
	return nil
}

// Apply implements State: data must be an encoded change.Step.
func (s *StoreState) Apply(name string, data []byte) error {
	step, n, err := change.DecodeStep(data)
	if err != nil {
		return fmt.Errorf("repl: step: %w", err)
	}
	if n != len(data) {
		return fmt.Errorf("repl: step: %d trailing bytes", len(data)-n)
	}
	s.mu.RLock()
	st := s.store
	s.mu.RUnlock()
	if _, err := st.GetDOEM(name); errors.Is(err, lore.ErrNotFound) {
		if err := st.PutDOEM(name, doem.New(oem.New())); err != nil {
			return err
		}
	} else if err != nil {
		return err
	}
	return st.ApplySet(name, step.At, step.Ops)
}

// Snapshot implements State: a count followed by (name, marshaled DOEM)
// pairs in sorted name order.
func (s *StoreState) Snapshot() ([]byte, error) {
	s.mu.RLock()
	st := s.store
	s.mu.RUnlock()
	entries := st.List()
	var names []string
	for _, e := range entries {
		if e.Kind == "doem" {
			names = append(names, e.Name)
		}
	}
	buf := binary.AppendUvarint(nil, uint64(len(names)))
	for _, name := range names {
		d, err := st.GetDOEM(name)
		if err != nil {
			return nil, err
		}
		data, err := d.Marshal()
		if err != nil {
			return nil, err
		}
		buf = change.AppendString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(len(data)))
		buf = append(buf, data...)
	}
	return buf, nil
}

// Restore implements State.
func (s *StoreState) Restore(snapshot []byte) error {
	st, err := lore.Open("")
	if err != nil {
		return err
	}
	count, n := binary.Uvarint(snapshot)
	if n <= 0 {
		return fmt.Errorf("repl: snapshot: bad count")
	}
	off := n
	for i := uint64(0); i < count; i++ {
		name, sn, err := change.DecodeString(snapshot[off:])
		if err != nil {
			return fmt.Errorf("repl: snapshot name: %w", err)
		}
		off += sn
		dlen, dn := binary.Uvarint(snapshot[off:])
		if dn <= 0 {
			return fmt.Errorf("repl: snapshot: bad length for %q", name)
		}
		off += dn
		if uint64(len(snapshot)-off) < dlen {
			return fmt.Errorf("repl: snapshot: truncated data for %q", name)
		}
		d, err := doem.Unmarshal(snapshot[off : off+int(dlen)])
		if err != nil {
			return fmt.Errorf("repl: snapshot doem %q: %w", name, err)
		}
		off += int(dlen)
		if err := st.PutDOEM(name, d); err != nil {
			return err
		}
	}
	if off != len(snapshot) {
		return fmt.Errorf("repl: snapshot: %d trailing bytes", len(snapshot)-off)
	}
	s.mu.Lock()
	s.store = st
	s.mu.Unlock()
	return nil
}

// View runs fn against the named database's indexed graph — the
// read-replica query entry point. Callers pair it with Node.Status to
// report the staleness bound alongside results.
func (s *StoreState) View(name string, fn func(lorel.Graph) error) error {
	s.mu.RLock()
	st := s.store
	s.mu.RUnlock()
	return st.ViewIndexed(name, fn)
}

// Store exposes the underlying store (tests, richer read paths).
func (s *StoreState) Store() *lore.Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.store
}
