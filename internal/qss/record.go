package qss

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/change"
	"repro/internal/oem"
	"repro/internal/timestamp"
)

// History records. Every step of a subscription's history is one record,
// folded in by one function (subState.apply) whether it comes from a live
// poll, a follower's stream or a restart's replay, so all of them converge
// on identical state. A record is a kind byte and then:
//
//   - a poll: the polling time, the inferred change set, the remap entries
//     allocated while packaging, and the packaged-id high-water mark — the
//     pair (t_i, U_i) of paper Section 6 plus what packaging needs;
//   - a truncation: the time up to which history collapses (Section 6.1).

const (
	kindPoll     byte = 'P'
	kindTruncate byte = 'T'
)

// maxRemapDelta bounds the remap-addition count a decoder will allocate
// for, so corrupt records cannot demand absurd allocations.
const maxRemapDelta = 1 << 24

// remapPair is one source-id-to-packaged-id mapping added during a poll.
type remapPair struct {
	Src oem.NodeID
	ID  oem.NodeID
}

// record is one decoded history record.
type record struct {
	truncate bool
	t        timestamp.Time
	// Poll records only.
	ops    change.Set
	added  []remapPair
	nextID oem.NodeID
}

// appendTo encodes the record.
func (r record) appendTo(dst []byte) []byte {
	if r.truncate {
		return change.AppendTime(append(dst, kindTruncate), r.t)
	}
	dst = change.AppendTime(append(dst, kindPoll), r.t)
	dst = change.AppendSet(dst, r.ops)
	return appendRemap(dst, r.added, r.nextID)
}

// appendRemap encodes remap pairs and the packaged-id high-water mark: a
// count, the pairs, and the mark.
func appendRemap(dst []byte, pairs []remapPair, nextID oem.NodeID) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(pairs)))
	for _, p := range pairs {
		dst = binary.AppendUvarint(dst, uint64(p.Src))
		dst = binary.AppendUvarint(dst, uint64(p.ID))
	}
	return binary.AppendUvarint(dst, uint64(nextID))
}

// decodeRemap decodes what appendRemap wrote from the front of data.
func decodeRemap(data []byte) ([]remapPair, oem.NodeID, int, error) {
	fail := func(what string) ([]remapPair, oem.NodeID, int, error) {
		return nil, 0, 0, fmt.Errorf("%w: %s", change.ErrCorrupt, what)
	}
	count, off := binary.Uvarint(data)
	if off <= 0 || count > maxRemapDelta {
		return fail("remap delta")
	}
	var pairs []remapPair
	if count > 0 {
		pairs = make([]remapPair, 0, min(count, uint64(len(data)-off)))
	}
	for i := uint64(0); i < count; i++ {
		src, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return fail("remap source")
		}
		off += n
		id, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return fail("remap target")
		}
		off += n
		pairs = append(pairs, remapPair{Src: oem.NodeID(src), ID: oem.NodeID(id)})
	}
	nextID, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return fail("next id")
	}
	return pairs, oem.NodeID(nextID), off + n, nil
}

func decodeRecord(data []byte) (record, error) {
	var r record
	fail := func(what string) (record, error) {
		return record{}, fmt.Errorf("%w: %s", change.ErrCorrupt, what)
	}
	if len(data) == 0 {
		return fail("empty record")
	}
	kind := data[0]
	if kind != kindPoll && kind != kindTruncate {
		return fail(fmt.Sprintf("record kind %#x", kind))
	}
	t, n, err := change.DecodeTime(data[1:])
	if err != nil {
		return record{}, err
	}
	r.t = t
	data = data[1+n:]
	if kind == kindTruncate {
		r.truncate = true
	} else {
		if r.ops, n, err = change.DecodeSet(data); err != nil {
			return record{}, err
		}
		data = data[n:]
		if r.added, r.nextID, n, err = decodeRemap(data); err != nil {
			return record{}, err
		}
		data = data[n:]
	}
	if len(data) != 0 {
		return fail(fmt.Sprintf("%d trailing bytes in record", len(data)))
	}
	return r, nil
}

// apply advances the subscription by one record. A poll adds the history
// step, the remap entries (pruning those whose objects the step deleted,
// when it deleted any),
// the poll time and the high-water mark. A truncation collapses history at
// or before r.t into the base snapshot and drops the poll times it covers,
// so t[-i] references keep their alignment with surviving history. A
// record the database refuses leaves st unchanged. Caller holds st.mu.
func (st *subState) apply(r record) error {
	if r.truncate {
		td, err := st.d.Truncate(r.t)
		if err != nil {
			return fmt.Errorf("qss: truncate: %w", err)
		}
		st.d = td
		st.pollTimes = slices.DeleteFunc(st.pollTimes, func(pt timestamp.Time) bool { return !pt.After(r.t) })
		st.pruneRemap()
		return nil
	}
	deleted := st.deleted()
	if len(r.ops) > 0 {
		if err := st.d.Apply(r.t, r.ops); err != nil {
			return fmt.Errorf("qss: applying changes: %w", err)
		}
	}
	for _, p := range r.added {
		st.remap[p.Src] = p.ID
	}
	if st.deleted() > deleted {
		st.pruneRemap() // only a deletion can leave an entry stale
	}
	st.pollTimes = append(st.pollTimes, r.t)
	st.nextID = r.nextID
	return nil
}

// deleted counts the objects the DOEM database has deleted from its
// current snapshot.
func (st *subState) deleted() int { return st.d.NodeCount() - st.d.Current().NumNodes() }

// pruneRemap drops remap entries whose packaged object has been deleted
// from the DOEM database, so a reappearing source object is treated as a
// fresh creation (ids are never reused, paper Section 2.2).
func (st *subState) pruneRemap() {
	cur := st.d.Current()
	for src, id := range st.remap {
		if !cur.Has(id) {
			delete(st.remap, src)
		}
	}
}
