package repl

import "errors"

// State is the materialized view a Node maintains from its oplog. The
// oplog (plus its checkpoint) is the durable truth; Open rebuilds the
// State from it deterministically, so implementations may be purely
// in-memory. All calls are serialized by the Node.
type State interface {
	// Reset discards everything, returning to the empty state. Called
	// before a full oplog replay or a snapshot restore.
	Reset() error
	// Apply applies one record's data to the named database/stream.
	Apply(name string, data []byte) error
	// Snapshot encodes the full state for checkpointing and follower
	// bootstrap. Implementations that cannot snapshot return
	// ErrNoSnapshot; their oplogs are never compacted and their followers
	// always catch up by record replay.
	Snapshot() ([]byte, error)
	// Restore replaces the state with a previously Snapshot()ed encoding.
	Restore(snapshot []byte) error
}

// ErrNoSnapshot marks a State that cannot checkpoint (see State.Snapshot).
var ErrNoSnapshot = errors.New("repl: state does not support snapshots")
