package repl

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
	// bootstrap.
	Snapshot() ([]byte, error)
	// Restore replaces the state with a previously Snapshot()ed encoding.
	Restore(snapshot []byte) error
}
