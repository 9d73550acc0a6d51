package qss

import (
	"encoding/json"
	"fmt"

	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/timestamp"
)

// Subscription state snapshots: the accumulated DOEM history, the source
// id remap, the id high-water mark and the polling times of one
// subscription as a self-contained JSON document. ReplState.Snapshot puts
// one per subscription into the node's checkpoint and follower bootstrap.

// wireState is the serialized subscription state.
type wireState struct {
	Name      string            `json:"name"`
	DOEM      json.RawMessage   `json:"doem"`
	Remap     map[uint64]uint64 `json:"remap,omitempty"`
	NextID    uint64            `json:"next_id"`
	PollTimes []string          `json:"poll_times,omitempty"`
}

// marshalState serializes the subscription state; st.mu must be held.
func (st *subState) marshalState(name string) ([]byte, error) {
	dd, err := st.d.Marshal()
	if err != nil {
		return nil, fmt.Errorf("qss: snapshot: %w", err)
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

// restoreState deserializes subscription state into st; st.mu must be held.
func (st *subState) restoreState(data []byte) error {
	var w wireState
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("qss: restore: %w", err)
	}
	d, err := doem.Unmarshal(w.DOEM)
	if err != nil {
		return fmt.Errorf("qss: restore: %w", err)
	}
	times := make([]timestamp.Time, 0, len(w.PollTimes))
	for _, ts := range w.PollTimes {
		t, err := timestamp.Parse(ts)
		if err != nil {
			return fmt.Errorf("qss: restore: %w", err)
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
