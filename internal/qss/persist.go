package qss

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/timestamp"
)

// Subscription state snapshots: the accumulated DOEM history in its
// stored form (doem.Append), the source id remap as pairs in ascending
// source order with the id high-water mark (appendRemap), and the polling
// times. ReplState.Snapshot puts one per subscription into the node's
// checkpoint and follower bootstrap. A state in JSON, the layout of
// earlier versions, is refused.

// marshalState serializes the subscription state; st.mu must be held.
func (st *subState) marshalState() ([]byte, error) {
	buf, err := doem.Append(nil, st.d)
	if err != nil {
		return nil, fmt.Errorf("qss: snapshot: %w", err)
	}
	pairs := make([]remapPair, 0, len(st.remap))
	for src, id := range st.remap {
		pairs = append(pairs, remapPair{Src: src, ID: id})
	}
	slices.SortFunc(pairs, func(a, b remapPair) int { return cmp.Compare(a.Src, b.Src) })
	buf = appendRemap(buf, pairs, st.nextID)
	buf = binary.AppendUvarint(buf, uint64(len(st.pollTimes)))
	for _, t := range st.pollTimes {
		buf = change.AppendTime(buf, t)
	}
	return buf, nil
}

// restoreState deserializes subscription state into st, which a refused
// state leaves unchanged; st.mu must be held.
func (st *subState) restoreState(data []byte) error {
	d, off, err := doem.Decode(data)
	if err != nil && json.Valid(data) {
		return fmt.Errorf("qss: restore: the state is JSON, the layout of an older version, which is no longer read")
	}
	if err != nil {
		return fmt.Errorf("qss: restore: %w", err)
	}
	pairs, nextID, n, err := decodeRemap(data[off:])
	if err != nil {
		return fmt.Errorf("qss: restore: %w", err)
	}
	off += n
	count, n := binary.Uvarint(data[off:])
	if n <= 0 || count > uint64(len(data)) {
		return fmt.Errorf("qss: restore: %w: poll time count", change.ErrCorrupt)
	}
	off += n
	times := make([]timestamp.Time, 0, count)
	for i := uint64(0); i < count; i++ {
		t, n, err := change.DecodeTime(data[off:])
		if err != nil {
			return fmt.Errorf("qss: restore: %w", err)
		}
		off += n
		times = append(times, t)
	}
	if off != len(data) {
		return fmt.Errorf("qss: restore: %w: %d trailing bytes", change.ErrCorrupt, len(data)-off)
	}
	st.d = d
	st.nextID = nextID
	st.remap = make(map[oem.NodeID]oem.NodeID, len(pairs))
	for _, p := range pairs {
		st.remap[p.Src] = p.ID
	}
	st.pollTimes = times
	return nil
}
