package repl

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"time"
)

// Dialer connects a follower to its (believed) primary. Multi-address
// deployments return a connection to whichever candidate answers.
type Dialer func() (net.Conn, error)

// errStalePrimary ends a pump whose primary has a lower epoch than ours.
var errStalePrimary = errors.New("repl: primary has stale epoch")

// Follow starts the follower loop: dial, handshake, apply the record
// stream, redial with capped backoff on failure. It returns immediately;
// the loop runs until StopFollow, Promote, or Close. Following while
// primary (or while already following) is an error.
func (n *Node) Follow(dial Dialer) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return ErrClosed
	}
	if n.role != RoleFollower {
		return errors.New("repl: cannot follow while primary")
	}
	if n.following {
		return errors.New("repl: already following")
	}
	n.following = true
	stop := make(chan struct{})
	n.followStop = stop
	done := make(chan struct{})
	n.followConn = done
	go func() {
		defer close(done)
		n.followLoop(dial, stop)
	}()
	return nil
}

// StopFollow stops the follower loop and waits for it to exit. Safe to
// call when not following.
func (n *Node) StopFollow() {
	n.mu.Lock()
	if !n.following {
		n.mu.Unlock()
		return
	}
	stop := n.followStop
	done := n.followConn
	conn := n.followNetConn
	n.mu.Unlock()
	select {
	case <-stop:
	default:
		close(stop)
	}
	if conn != nil {
		conn.Close()
	}
	<-done
}

func (n *Node) followLoop(dial Dialer, stop chan struct{}) {
	defer func() {
		n.mu.Lock()
		n.following = false
		n.followNetConn = nil
		n.mu.Unlock()
	}()
	backoff := n.cfg.RedialInitial
	for {
		select {
		case <-stop:
			return
		default:
		}
		n.mu.Lock()
		if n.closed || n.role != RoleFollower {
			n.mu.Unlock()
			return
		}
		n.mu.Unlock()
		conn, err := dial()
		if err == nil {
			n.mu.Lock()
			n.followNetConn = conn
			n.mu.Unlock()
			mFollowerConnected.Set(1)
			err = n.pump(conn, stop)
			mFollowerConnected.Set(0)
			conn.Close()
			n.mu.Lock()
			n.followNetConn = nil
			n.mu.Unlock()
			if err == nil || errors.Is(err, errStalePrimary) {
				// Clean session end or a deposed primary: retry promptly,
				// the cluster may be mid-failover.
				backoff = n.cfg.RedialInitial
			}
		}
		select {
		case <-stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > n.cfg.RedialMax {
			backoff = n.cfg.RedialMax
		}
	}
}

// pump runs one follower session: send Hello, then apply the primary's
// frame stream until the connection ends or a protocol/fencing condition
// breaks it.
func (n *Node) pump(c net.Conn, stop chan struct{}) error {
	n.mu.Lock()
	hello := Frame{
		Type:    FrameHello,
		Epoch:   n.epoch,
		Seq:     n.applied,
		Commit:  n.lastRecordEpoch,
		Payload: handshakePayload(n.cfg.ID),
	}
	n.mu.Unlock()
	if err := WriteFrame(c, hello); err != nil {
		return err
	}
	br := bufio.NewReader(c)
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		if n.cfg.IdleTimeout > 0 {
			c.SetReadDeadline(time.Now().Add(n.cfg.IdleTimeout))
		}
		f, err := ReadFrame(br, DefaultMaxFrame)
		if err != nil {
			return err
		}
		n.mu.Lock()
		myEpoch := n.epoch
		n.mu.Unlock()
		if f.Type == FrameReject {
			// The peer outranks us (or refuses to serve); adopt and redial.
			mRejectsReceived.Inc()
			n.adoptEpoch(f.Epoch)
			return fmt.Errorf("repl: rejected by peer at epoch %d", f.Epoch)
		}
		if f.Epoch < myEpoch {
			// Stale primary: fence it and drop the stream.
			mRejectsSent.Inc()
			WriteFrame(c, Frame{Type: FrameReject, Epoch: myEpoch})
			return errStalePrimary
		}
		if f.Epoch > myEpoch {
			n.adoptEpoch(f.Epoch)
			myEpoch = f.Epoch
		}
		switch f.Type {
		case FrameWelcome:
			addr, ok := parseHandshake(f.Payload)
			if !ok {
				return fmt.Errorf("%w: welcome payload", ErrBadFrame)
			}
			n.mu.Lock()
			if f.Seq > n.primaryTip {
				n.primaryTip = f.Seq
			}
			// Only raise the watermark (as FrameRecord/FrameCommit do): a
			// reconnect Welcome must not regress what we already know.
			if f.Commit > n.commitKnown {
				n.commitKnown = f.Commit
			}
			n.primaryAddr = addr
			n.lastContact = time.Now()
			n.mu.Unlock()
		case FrameSnapshot:
			if err := n.applySnapshot(f); err != nil {
				return err
			}
			ack := Frame{Type: FrameAck, Epoch: myEpoch, Seq: f.Seq}
			if err := WriteFrame(c, ack); err != nil {
				return err
			}
			mAcksSent.Inc()
		case FrameRecord:
			dup, err := n.applyRecord(f)
			if err != nil {
				return err
			}
			if !dup {
				mRecordsReceived.Inc()
			}
			ack := Frame{Type: FrameAck, Epoch: myEpoch, Seq: f.Seq}
			if err := WriteFrame(c, ack); err != nil {
				return err
			}
			mAcksSent.Inc()
		case FrameCommit:
			n.mu.Lock()
			if f.Seq > n.primaryTip {
				n.primaryTip = f.Seq
			}
			if f.Commit > n.commitKnown {
				n.commitKnown = f.Commit
			}
			n.lastContact = time.Now()
			n.mu.Unlock()
		default:
			return fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, f.Type)
		}
	}
}

// applySnapshot resets the follower to the primary's snapshot: state
// restore + oplog reset, positioned at f.Seq.
func (n *Node) applySnapshot(f Frame) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.state.Restore(f.Payload); err != nil {
		return fmt.Errorf("repl: restore snapshot: %w", err)
	}
	// The state now holds the snapshot; a log that failed to reset to it
	// does not, and the two cannot be reconciled from here. Fatal, as in
	// applyRecord: close the node; a restart rebuilds the state from the
	// log.
	if err := n.log.Reset(f.Payload, f.Seq); err != nil {
		n.closeLocked()
		return fmt.Errorf("repl: reset oplog to snapshot %d (node closed): %w", f.Seq, err)
	}
	mSnapshotsApplied.Inc()
	n.applied = f.Seq
	n.appliedAt = n.cfg.Clock.Now()
	n.lastRecordEpoch = f.Commit
	if f.Seq > n.primaryTip {
		n.primaryTip = f.Seq
	}
	n.lastContact = time.Now()
	return nil
}

// applyRecord appends one streamed record verbatim to the oplog and
// applies it to the state. Duplicate (already-applied) sequences are
// tolerated and re-acked; gaps are protocol errors.
func (n *Node) applyRecord(f Frame) (dup bool, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if f.Seq <= n.applied {
		return true, nil
	}
	if f.Seq != n.applied+1 {
		return false, fmt.Errorf("repl: record gap: got %d, want %d", f.Seq, n.applied+1)
	}
	repoch, name, data, err := DecodeOplogRecord(f.Payload)
	if err != nil {
		return false, err
	}
	// Either failure is fatal, as on the primary (see Node.Apply): after
	// a failed append the next record would follow a frame that may be
	// torn, and after a failed apply a redial would append the record
	// again. Close the node; a restart recovers what is durable.
	if _, err := n.log.Append(f.Payload); err != nil {
		n.closeLocked()
		return false, fmt.Errorf("repl: append record %d (node closed): %w", f.Seq, err)
	}
	if err := n.state.Apply(name, data); err != nil {
		n.closeLocked()
		return false, fmt.Errorf("repl: apply record %d (log/state diverged; node closed): %w", f.Seq, err)
	}
	n.applied = f.Seq
	n.appliedAt = n.cfg.Clock.Now()
	n.lastRecordEpoch = repoch
	if f.Seq > n.primaryTip {
		n.primaryTip = f.Seq
	}
	if f.Commit > n.commitKnown {
		n.commitKnown = f.Commit
	}
	n.lastContact = time.Now()
	return false, nil
}
