package wal

import (
	"fmt"

	"repro/internal/change"
	"repro/internal/doem"
	"repro/internal/oem"
	"repro/internal/timestamp"
)

// Typed layer: history steps as record payloads and DOEM databases as
// checkpoint payloads. A log written through this layer is exactly an OEM
// history H on disk; ReplayDOEM is the paper's D(O, H) construction run
// directly off the log, with O the checkpointed base (or the empty
// database).

// AppendStep appends one history step (t, ops) as a record.
func (l *Log) AppendStep(t timestamp.Time, ops change.Set) (uint64, error) {
	return l.Append(change.AppendStep(nil, change.Step{At: t, Ops: ops}))
}

// ReplaySteps calls fn for every step recorded after the checkpoint, in
// order. fn must not call back into l.
func (l *Log) ReplaySteps(fn func(seq uint64, step change.Step) error) error {
	return l.Replay(func(seq uint64, payload []byte) error {
		step, n, err := change.DecodeStep(payload)
		if err != nil {
			return fmt.Errorf("wal: record %d: %w", seq, err)
		}
		if n != len(payload) {
			return fmt.Errorf("wal: record %d: %d trailing bytes", seq, len(payload)-n)
		}
		return fn(seq, step)
	})
}

// ReplayHistory collects the steps recorded after the checkpoint.
func (l *Log) ReplayHistory() (change.History, error) {
	var h change.History
	err := l.ReplaySteps(func(_ uint64, step change.Step) error {
		h = append(h, step)
		return nil
	})
	return h, err
}

// ReplayDOEM reconstructs the DOEM database the log describes: the
// checkpointed base (an empty database when none has been written) with
// every subsequent step applied.
func (l *Log) ReplayDOEM() (*doem.Database, error) {
	var d *doem.Database
	if payload, _, ok := l.LastCheckpoint(); ok {
		var err error
		d, err = doem.Unmarshal(payload)
		if err != nil {
			return nil, fmt.Errorf("wal: checkpoint: %w", err)
		}
	} else {
		d = doem.New(oem.New())
	}
	err := l.ReplaySteps(func(seq uint64, step change.Step) error {
		if err := d.Apply(step.At, step.Ops); err != nil {
			return fmt.Errorf("wal: replaying record %d: %w", seq, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d, nil
}

// CheckpointDOEM snapshots d as the new checkpoint covering every record
// appended so far, dropping the segments the snapshot makes redundant.
//
// Concurrency contract: the caller must exclude writers of BOTH d and this
// log for the whole call. The log's own mutex serializes the final
// Checkpoint write against Append, but the marshal of d and the LastSeq
// read here are not one atomic step with it: an AppendStep landing between
// them would either be covered-but-absent from the snapshot (the record is
// compacted away and its effects lost on replay) or present-in-snapshot
// yet replayed again. internal/segment seals and truncates under its
// single-writer rule, which lore.Store enforces by holding its store-wide
// lock across both ApplySet and Checkpoint; see the ApplySet/Checkpoint
// race-stress test in internal/lore.
func (l *Log) CheckpointDOEM(d *doem.Database) error {
	payload, err := d.Marshal()
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	return l.Checkpoint(payload, l.LastSeq())
}
