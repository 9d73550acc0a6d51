package doem

import (
	"encoding/binary"
	"fmt"

	"repro/internal/change"
	"repro/internal/oem"
	"repro/internal/oemio"
)

// The stored form of a DOEM database. Section 3.2 shows that a feasible
// DOEM database D is D(O_0(D), H(D)), so the pair is all that is stored:
//
//	uvarint len(O_0) | O_0 (internal/oemio) | uvarint len(H) | change.AppendStep ...
//
// A sealed segment file (internal/segment) carries the same pair for its
// interval. The pair preserves node ids, and replaying it rebuilds every
// annotation, the OutAll order and the step times; decoding replays it
// through Apply, so every decoded step has passed the Section 2.1 checks.

// maxDecodeCount caps a decoded step count, so a corrupt length prefix
// cannot demand a huge allocation (the bound internal/change uses).
const maxDecodeCount = 1 << 24

// AppendHistory appends the pair (o, h) to dst.
func AppendHistory(dst []byte, o *oem.Database, h change.History) ([]byte, error) {
	base, err := oemio.Marshal(o)
	if err != nil {
		return nil, fmt.Errorf("doem: encoding O_0: %w", err)
	}
	dst = binary.AppendUvarint(dst, uint64(len(base)))
	dst = append(dst, base...)
	dst = binary.AppendUvarint(dst, uint64(len(h)))
	for _, step := range h {
		dst = change.AppendStep(dst, step)
	}
	return dst, nil
}

// DecodeHistory decodes a pair written by AppendHistory from the front of
// data and returns it with the number of bytes read. It checks the
// encoding only; FromHistory checks the history.
func DecodeHistory(data []byte) (*oem.Database, change.History, int, error) {
	blen, n := binary.Uvarint(data)
	if n <= 0 || blen > uint64(len(data)-n) {
		return nil, nil, 0, fmt.Errorf("%w: O_0 length", change.ErrCorrupt)
	}
	off := n
	o, err := oemio.Unmarshal(data[off : off+int(blen)])
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%w: O_0: %v", change.ErrCorrupt, err)
	}
	off += int(blen)
	count, n := binary.Uvarint(data[off:])
	if n <= 0 || count > maxDecodeCount {
		return nil, nil, 0, fmt.Errorf("%w: step count", change.ErrCorrupt)
	}
	off += n
	// Every step takes at least one byte, which bounds the allocation by
	// the input.
	h := make(change.History, 0, min(count, uint64(len(data)-off)))
	for i := uint64(0); i < count; i++ {
		step, n, err := change.DecodeStep(data[off:])
		if err != nil {
			return nil, nil, 0, fmt.Errorf("step %d: %w", i, err)
		}
		off += n
		h = append(h, step)
	}
	return o, h, off, nil
}

// Append appends the stored form of d to dst: O_0(D), then one step per
// entry of Steps(), a step that left no annotation as an empty set. A
// database without annotations is its current snapshot, so it is written
// as O_0 without materializing one.
func Append(dst []byte, d *Database) ([]byte, error) {
	o := d.current
	if d.annots > 0 {
		o = d.Original()
	}
	return AppendHistory(dst, o, d.history())
}

// Decode decodes a database written by Append from the front of data and
// returns it with the number of bytes read. The history must apply to O_0
// step by step (FromHistory). When it changes anything, O_0 must be an OEM
// database whose every object the root reaches, as O_0(D) always is; a
// database without annotations is stored as its current snapshot, which
// may hold objects nothing reaches.
func Decode(data []byte) (*Database, int, error) {
	o, h, n, err := DecodeHistory(data)
	if err != nil {
		return nil, 0, fmt.Errorf("doem: decode: %w", err)
	}
	for _, step := range h {
		if len(step.Ops) > 0 {
			if err := o.Validate(); err != nil {
				return nil, 0, fmt.Errorf("doem: decode: O_0: %w", err)
			}
			break
		}
	}
	d, err := replay(wrap(o), h)
	if err != nil {
		return nil, 0, fmt.Errorf("doem: decode: %w", err)
	}
	return d, n, nil
}

// history returns H(D) with one step per entry of Steps(): the steps of
// ExtractHistory, and an empty set at each step time that carries no
// annotation.
func (d *Database) history() change.History {
	ext := d.ExtractHistory()
	h := make(change.History, len(d.steps))
	j := 0
	for i, t := range d.steps {
		h[i].At = t
		if j < len(ext) && ext[j].At.Equal(t) {
			h[i].Ops = ext[j].Ops
			j++
		}
	}
	return h
}
