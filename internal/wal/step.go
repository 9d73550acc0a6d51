package wal

import (
	"repro/internal/change"
	"repro/internal/timestamp"
)

// AppendStep appends one history step (t, ops) as a record in
// change.AppendStep's encoding. The log stores opaque payloads and
// internal/segment encodes its own records; this method remains only
// because the end-to-end benchmark's traced replay (benchmark/notify.go)
// calls it.
func (l *Log) AppendStep(t timestamp.Time, ops change.Set) (uint64, error) {
	return l.Append(change.AppendStep(nil, change.Step{At: t, Ops: ops}))
}
