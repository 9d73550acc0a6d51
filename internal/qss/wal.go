package qss

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/change"
	"repro/internal/oem"
	"repro/internal/timestamp"
	"repro/internal/wal"
)

// Write-ahead logging of subscription state. With EnableWAL, every poll
// appends one record — the polling time, the inferred change set, the remap
// entries allocated while packaging, and the id high-water mark — to a
// per-subscription log before the subscription's state advances by it.
// Re-subscribing under the same name replays the log
// (on top of the last checkpoint, if any), so a QSS restart recovers the
// full subscription history without re-polling the sources.

const subWALExt = ".subwal"

// maxRemapDelta bounds the remap-addition count a decoder will allocate
// for, so corrupt records cannot demand absurd allocations.
const maxRemapDelta = 1 << 24

// remapPair is one source-id-to-packaged-id mapping added during a poll.
type remapPair struct {
	Src oem.NodeID
	ID  oem.NodeID
}

// EnableWAL turns on write-ahead logging under dir for all subscriptions
// registered afterwards. It must be called before Subscribe; opt may be
// nil for default log options.
func (s *Service) EnableWAL(dir string, opt *wal.Options) error {
	if dir == "" {
		return errors.New("qss: WAL needs a directory")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.subs) > 0 {
		return errors.New("qss: EnableWAL must precede Subscribe")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("qss: %w", err)
	}
	if opt == nil {
		opt = &wal.Options{}
	}
	s.walDir, s.walOpt = dir, opt
	return nil
}

// Close closes all subscription logs. Subscriptions remain registered but
// further polls of persisted subscriptions will fail; Close is for
// shutdown.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, st := range s.subs {
		st.mu.Lock()
		if st.log != nil {
			if err := st.log.Close(); err != nil && first == nil {
				first = err
			}
		}
		st.mu.Unlock()
	}
	return first
}

// attachLog opens (or resumes) the subscription's log and replays any
// recorded history into st. Caller holds s.mu; st is not yet published.
func (s *Service) attachLog(st *subState, name string) error {
	if strings.ContainsAny(name, "/\\") || strings.HasPrefix(name, ".") {
		return fmt.Errorf("qss: subscription name %q not usable as a log directory", name)
	}
	l, err := wal.Open(filepath.Join(s.walDir, name+subWALExt), s.walOpt)
	if err != nil {
		return fmt.Errorf("qss: opening log: %w", err)
	}
	if err := st.recoverFromLog(l); err != nil {
		l.Close()
		return err
	}
	st.log = l
	return nil
}

// recoverFromLog rebuilds subscription state from a checkpoint plus the
// poll records after it, folded in as the polls folded them.
func (st *subState) recoverFromLog(l *wal.Log) error {
	if ck, _, ok := l.LastCheckpoint(); ok {
		if err := st.restoreState(ck); err != nil {
			return fmt.Errorf("qss: recovering checkpoint: %w", err)
		}
	}
	return l.Replay(func(seq uint64, payload []byte) error {
		if err := st.foldRecord(payload); err != nil {
			return fmt.Errorf("qss: log record %d: %w", seq, err)
		}
		return nil
	})
}

// appendPollRecord encodes one poll: time, change set, remap additions,
// and the packaged-id high-water mark.
func appendPollRecord(dst []byte, t timestamp.Time, ops change.Set, added []remapPair, nextID oem.NodeID) []byte {
	dst = change.AppendTime(dst, t)
	dst = change.AppendSet(dst, ops)
	dst = binary.AppendUvarint(dst, uint64(len(added)))
	for _, p := range added {
		dst = binary.AppendUvarint(dst, uint64(p.Src))
		dst = binary.AppendUvarint(dst, uint64(p.ID))
	}
	dst = binary.AppendUvarint(dst, uint64(nextID))
	return dst
}

func decodePollRecord(data []byte) (timestamp.Time, change.Set, []remapPair, oem.NodeID, error) {
	fail := func(err error) (timestamp.Time, change.Set, []remapPair, oem.NodeID, error) {
		return timestamp.Time{}, nil, nil, 0, err
	}
	t, n, err := change.DecodeTime(data)
	if err != nil {
		return fail(err)
	}
	data = data[n:]
	ops, n, err := change.DecodeSet(data)
	if err != nil {
		return fail(err)
	}
	data = data[n:]
	count, n := binary.Uvarint(data)
	if n <= 0 || count > maxRemapDelta {
		return fail(fmt.Errorf("%w: remap delta", change.ErrCorrupt))
	}
	data = data[n:]
	var added []remapPair
	for i := uint64(0); i < count; i++ {
		src, n := binary.Uvarint(data)
		if n <= 0 {
			return fail(fmt.Errorf("%w: remap source", change.ErrCorrupt))
		}
		data = data[n:]
		id, n := binary.Uvarint(data)
		if n <= 0 {
			return fail(fmt.Errorf("%w: remap target", change.ErrCorrupt))
		}
		data = data[n:]
		added = append(added, remapPair{Src: oem.NodeID(src), ID: oem.NodeID(id)})
	}
	nextID, n := binary.Uvarint(data)
	if n <= 0 {
		return fail(fmt.Errorf("%w: next id", change.ErrCorrupt))
	}
	if len(data[n:]) != 0 {
		return fail(fmt.Errorf("%w: %d trailing bytes in poll record", change.ErrCorrupt, len(data[n:])))
	}
	return t, ops, added, oem.NodeID(nextID), nil
}
