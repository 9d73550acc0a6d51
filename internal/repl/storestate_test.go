package repl

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/timestamp"
)

// ApplyStep is Apply for StoreState-backed nodes: one history step on the
// named database.
func (n *Node) ApplyStep(name string, t timestamp.Time, ops change.Set) (uint64, error) {
	return n.Apply(name, EncodeStep(t, ops))
}

// StoreState is the State the protocol tests replicate into: named DOEM
// databases in memory, where each oplog record is a change.Step applied to
// the named database. Durability comes entirely from the node's oplog.
// (The production State is qss.ReplState.)
type StoreState struct {
	mu  sync.RWMutex
	dbs map[string]*doem.Database
}

// NewStoreState builds an empty state.
func NewStoreState() *StoreState {
	return &StoreState{dbs: make(map[string]*doem.Database)}
}

// EncodeStep encodes one history step as StoreState record data.
func EncodeStep(t timestamp.Time, ops change.Set) []byte {
	return change.AppendStep(nil, change.Step{At: t, Ops: ops})
}

// Reset implements State.
func (s *StoreState) Reset() error {
	s.mu.Lock()
	s.dbs = make(map[string]*doem.Database)
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
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.dbs[name]
	if !ok {
		d = doem.New(oem.New())
		s.dbs[name] = d
	}
	return d.Apply(step.At, step.Ops)
}

// Snapshot implements State: a count followed by (name, stored DOEM)
// pairs in sorted name order.
func (s *StoreState) Snapshot() ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.dbs))
	for name := range s.dbs {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := binary.AppendUvarint(nil, uint64(len(names)))
	for _, name := range names {
		data := doem.Append(nil, s.dbs[name])
		buf = change.AppendString(buf, name)
		buf = binary.AppendUvarint(buf, uint64(len(data)))
		buf = append(buf, data...)
	}
	return buf, nil
}

// Restore implements State.
func (s *StoreState) Restore(snapshot []byte) error {
	dbs := make(map[string]*doem.Database)
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
		d, dn, err := doem.Decode(snapshot[off : off+int(dlen)])
		if err == nil && uint64(dn) != dlen {
			err = fmt.Errorf("%d trailing bytes", dlen-uint64(dn))
		}
		if err != nil {
			return fmt.Errorf("repl: snapshot doem %q: %w", name, err)
		}
		off += int(dlen)
		dbs[name] = d
	}
	if off != len(snapshot) {
		return fmt.Errorf("repl: snapshot: %d trailing bytes", len(snapshot)-off)
	}
	s.mu.Lock()
	s.dbs = dbs
	s.mu.Unlock()
	return nil
}

// GetDOEM returns a copy of the named database.
func (s *StoreState) GetDOEM(name string) (*doem.Database, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.dbs[name]
	if !ok {
		return nil, fmt.Errorf("repl: no database %q", name)
	}
	return d.Clone(), nil
}
