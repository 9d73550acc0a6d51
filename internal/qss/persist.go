package qss

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/timestamp"
)

// Subscription state persistence: the accumulated DOEM history, the source
// id remap, and the polling times of a subscription can be exported and
// re-imported, so a QSS server restart (or a migration of the subscription
// to another server) does not lose history. The paper's QSS keeps this
// state in Lore; here it is a self-contained JSON document the caller can
// put wherever it likes (e.g. a lore.Store via PutOEM/PutDOEM, or a file).

// wireState is the serialized subscription state.
type wireState struct {
	Name      string            `json:"name"`
	DOEM      json.RawMessage   `json:"doem"`
	Remap     map[uint64]uint64 `json:"remap,omitempty"`
	NextID    uint64            `json:"next_id"`
	PollTimes []string          `json:"poll_times,omitempty"`
}

// ExportState serializes the named subscription's accumulated state.
func (s *Service) ExportState(name string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.subs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchSub, name)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.marshalState(name)
}

// marshalState serializes the subscription state; st.mu must be held.
func (st *subState) marshalState(name string) ([]byte, error) {
	dd, err := st.d.Marshal()
	if err != nil {
		return nil, fmt.Errorf("qss: export: %w", err)
	}
	w := wireState{Name: name, DOEM: dd, NextID: uint64(st.nextID)}
	w.Remap = make(map[uint64]uint64, len(st.remap))
	for src, id := range st.remap {
		w.Remap[uint64(src)] = uint64(id)
	}
	for _, t := range st.pollTimes {
		w.PollTimes = append(w.PollTimes, t.String())
	}
	return json.Marshal(w)
}

// ImportState restores a subscription's accumulated state. The subscription
// must already exist (Subscribe first — sources and queries are not part of
// the state) and must not have been polled yet.
func (s *Service) ImportState(name string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replNode != nil {
		// Imported state would diverge from what the replicated oplog
		// replays; replicated subscriptions recover from the oplog alone.
		return errors.New("qss: import is not supported under replication")
	}
	st, ok := s.subs[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchSub, name)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.pollTimes) > 0 {
		return fmt.Errorf("qss: import into already-polled subscription %q", name)
	}
	if err := st.restoreState(data); err != nil {
		return err
	}
	// Under WAL persistence the imported state supersedes whatever the log
	// replayed: record it as a checkpoint so the next restart agrees.
	if st.log != nil {
		ck, err := st.marshalState(name)
		if err != nil {
			return err
		}
		if err := st.log.Checkpoint(ck, st.log.LastSeq()); err != nil {
			return fmt.Errorf("qss: import: %w", err)
		}
	}
	return nil
}

// restoreState deserializes subscription state into st; st.mu must be held.
func (st *subState) restoreState(data []byte) error {
	var w wireState
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("qss: import: %w", err)
	}
	d, err := doem.Unmarshal(w.DOEM)
	if err != nil {
		return fmt.Errorf("qss: import: %w", err)
	}
	times := make([]timestamp.Time, 0, len(w.PollTimes))
	for _, ts := range w.PollTimes {
		t, err := timestamp.Parse(ts)
		if err != nil {
			return fmt.Errorf("qss: import: %w", err)
		}
		times = append(times, t)
	}
	st.d = d
	st.nextID = oem.NodeID(w.NextID)
	st.remap = make(map[oem.NodeID]oem.NodeID, len(w.Remap))
	for src, id := range w.Remap {
		st.remap[oem.NodeID(src)] = oem.NodeID(id)
	}
	st.pollTimes = times
	return nil
}
