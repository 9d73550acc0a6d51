package repl

import (
	"bufio"
	"errors"
	"net"

	"repro/internal/wal"
)

// batchBytes bounds one streamed record batch.
const batchBytes = 1 << 20

// session is one connected follower on the primary side.
type session struct {
	node *Node
	conn net.Conn
	id   string
	dead bool // protected by node.mu
}

// Serve accepts follower connections until ln fails (i.e. is closed),
// handling each on its own goroutine.
func (n *Node) Serve(ln net.Listener) {
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go n.HandleConn(c)
	}
}

// HandleConn runs one replication session over c: handshake, optional
// snapshot, then record streaming with ack collection. It returns when
// the session ends (connection failure, fencing, node close). Any node —
// including one currently a follower — can accept sessions; non-primaries
// reject the hello with their epoch, which tells a stale primary it has
// been deposed.
func (n *Node) HandleConn(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	hello, err := ReadFrame(br, DefaultMaxFrame)
	if err != nil || hello.Type != FrameHello {
		return
	}
	id, ok := parseHandshake(hello.Payload)
	if !ok || id == "" {
		return
	}
	n.adoptEpoch(hello.Epoch) // a higher-epoch peer deposes us

	n.mu.Lock()
	if n.role != RolePrimary || n.closed {
		ep := n.epoch
		n.mu.Unlock()
		mRejectsSent.Inc()
		WriteFrame(c, Frame{Type: FrameReject, Epoch: ep})
		return
	}

	// Decide where the stream starts. hello.Seq is the follower's last
	// oplog seq, hello.Commit the epoch of its record at that seq: if that
	// record does not byte-match ours the follower's tail diverged (it
	// heard unacknowledged records from a deposed primary) and must be
	// reset from a snapshot.
	start := hello.Seq
	needSnap := false
	base := n.log.CheckpointSeq()
	switch {
	case start > n.applied:
		needSnap = true // follower ahead of us: divergent tail
	case start < base:
		needSnap = true // compacted away
	case start == 0:
		// Empty follower, empty checkpoint: full stream from seq 1.
	case start == n.applied && hello.Commit == n.lastRecordEpoch:
		// Fast path: the follower's tip record has the same (epoch, seq)
		// as ours, and only one primary ever writes a given seq within an
		// epoch, so the bytes match. This also verifies the checkpoint
		// boundary (start == base) when the record itself was compacted.
	default:
		recs, _, rerr := n.log.Records(start, 1)
		if rerr != nil || len(recs) == 0 || recs[0].Seq != start {
			// Unreadable — including a checkpoint-boundary record whose
			// bytes were compacted away: reset conservatively rather than
			// accept an unverifiable tail.
			needSnap = true
		} else if repoch, _, _, derr := DecodeOplogRecord(recs[0].Payload); derr != nil || repoch != hello.Commit {
			needSnap = true
		}
	}
	var snap []byte
	if needSnap {
		snap, err = n.state.Snapshot()
		if err != nil {
			// No snapshot for an incompatible follower: nothing we can
			// stream. Drop the session; the follower redials.
			n.mu.Unlock()
			mSnapshotFailures.Inc()
			return
		}
		start = n.applied
	}
	sess := &session{node: n, conn: c, id: id}
	n.sessions[sess] = struct{}{}
	epoch, commit, applied := n.epoch, n.commit, n.applied
	recEpoch := n.lastRecordEpoch
	n.mu.Unlock()

	defer func() {
		n.mu.Lock()
		delete(n.sessions, sess)
		n.mu.Unlock()
	}()

	welcome := Frame{
		Type: FrameWelcome, Epoch: epoch, Seq: applied, Commit: commit,
		Payload: handshakePayload(n.cfg.Advertise),
	}
	if err := WriteFrame(c, welcome); err != nil {
		return
	}
	if needSnap {
		mSnapshotsSent.Inc()
		f := Frame{Type: FrameSnapshot, Epoch: epoch, Seq: start, Commit: recEpoch, Payload: snap}
		if err := WriteFrame(c, f); err != nil {
			return
		}
	}

	// Ack reader: collects follower acks and fences us on higher epochs.
	go func() {
		for {
			f, err := ReadFrame(br, DefaultMaxFrame)
			if err != nil {
				n.mu.Lock()
				sess.dead = true
				n.cond.Broadcast()
				n.mu.Unlock()
				c.Close()
				return
			}
			if f.Epoch > epoch {
				n.adoptEpoch(f.Epoch)
			}
			switch f.Type {
			case FrameAck:
				n.recordAck(id, f.Seq)
			case FrameReject:
				mRejectsReceived.Inc()
				n.adoptEpoch(f.Epoch)
				c.Close()
				return
			}
		}
	}()

	n.stream(sess, c, start+1, commit)
}

// stream pushes records (and commit-watermark heartbeats) to one follower
// from seq next onward, waiting on the node condition for new appends.
// lastCommit is the watermark the follower already knows (from Welcome).
func (n *Node) stream(sess *session, c net.Conn, next, lastCommit uint64) {
	bw := bufio.NewWriter(c)
	n.mu.Lock()
	lastHb := n.hb
	n.mu.Unlock()
	for {
		n.mu.Lock()
		for {
			if n.closed || n.role != RolePrimary || sess.dead {
				n.mu.Unlock()
				return
			}
			if n.applied >= next || n.commit != lastCommit || n.hb != lastHb {
				break
			}
			n.cond.Wait()
		}
		lastHb = n.hb
		epoch, commit, applied := n.epoch, n.commit, n.applied
		n.mu.Unlock()

		if applied >= next {
			recs, _, err := n.log.Records(next, batchBytes)
			if errors.Is(err, wal.ErrCompacted) {
				// A concurrent Compact outran this slow session; reset the
				// follower with a fresh snapshot.
				n.mu.Lock()
				snap, serr := n.state.Snapshot()
				upTo, recEpoch := n.applied, n.lastRecordEpoch
				epoch = n.epoch
				n.mu.Unlock()
				if serr != nil {
					mSnapshotFailures.Inc()
					return
				}
				mSnapshotsSent.Inc()
				f := Frame{Type: FrameSnapshot, Epoch: epoch, Seq: upTo, Commit: recEpoch, Payload: snap}
				if WriteFrame(bw, f) != nil || bw.Flush() != nil {
					return
				}
				next = upTo + 1
				continue
			}
			if err != nil {
				return
			}
			for _, r := range recs {
				f := Frame{Type: FrameRecord, Epoch: epoch, Seq: r.Seq, Commit: commit, Payload: r.Payload}
				if err := WriteFrame(bw, f); err != nil {
					return
				}
				next = r.Seq + 1
				mRecordsSent.Inc()
			}
			if err := bw.Flush(); err != nil {
				return
			}
			lastCommit = commit
			continue
		}
		// No new records: push the commit watermark.
		f := Frame{Type: FrameCommit, Epoch: epoch, Seq: applied, Commit: commit}
		if WriteFrame(bw, f) != nil || bw.Flush() != nil {
			return
		}
		lastCommit = commit
	}
}
