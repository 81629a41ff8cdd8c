package node

import (
	"errors"
	"math"
	"time"

	"blockdag/internal/gossip"
	"blockdag/internal/peerscore"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// DeliverBurst is the delivery turn: one burst of network payloads, its
// signature checks amortized and its journal writes group-committed
// (core.Server.DeliverBatch).
func (n *Node) DeliverBurst(batch []gossip.Message) {
	n.cfg.Server.DeliverBatch(batch)
}

// Disseminate is the block turn: seal and broadcast the current block.
// A failure means the block could not be persisted (broadcast withheld,
// server unhealthy) or an internal invariant broke; it is recorded for
// Err, and the other turns keep running: delivery, interpretation, and
// FWD service stay up on an unhealthy server.
func (n *Node) Disseminate() {
	n.recordErr(n.cfg.Server.Disseminate())
}

// Tick is the housekeeping turn: FWD retries and, on a durable node,
// the store's interval fsync, the state seal cycle and the checkpoint
// policy — each paced on the server's clock, so calling Tick more often
// only makes them more punctual.
func (n *Node) Tick() {
	srv := n.cfg.Server
	srv.Tick(srv.Now())
	if n.cfg.Store != nil {
		n.recordErr(n.cfg.Store.Tick())
		n.maybeSealState()
		n.maybeCheckpoint()
	}
}

// FollowIfDue is the follower's turn: once FollowEvery has passed since
// the last poll went out, poll the next peer (FollowPoll). It returns how
// long until a poll can next be due — what the goroutine shell sleeps; a
// stepped owner simply calls it every round. Never, with the follower
// off.
func (n *Node) FollowIfDue() time.Duration {
	every := n.cfg.FollowEvery
	if every <= 0 {
		return math.MaxInt64
	}
	if wait := n.lastFollow + every - n.cfg.Server.Now(); wait > 0 {
		return wait
	}
	n.FollowPoll()
	return every
}

// FollowPoll opens one watermark-exchange query against the next peer in
// rotation, whatever the period says — unless a poll (query or delta
// pull) is still in flight: at most one is, so a slow peer stretches the
// period instead of stacking requests.
func (n *Node) FollowPoll() {
	if n.followInFlight || n.cfg.FollowEvery <= 0 {
		return
	}
	// Score-weighted rotation: with a scorer configured (core.Config.Scores)
	// the poll prefers peers outside quarantine and never targets a banned
	// one; without, this is the plain round-robin it always was.
	peer, ok := n.cfg.Server.Scores().Pick(n.followVia.Peers, n.followPeer)
	n.followPeer++
	if !ok {
		return // no peer, or every one is banned; FWD gossip remains the fallback
	}
	n.lastFollow = n.cfg.Server.Now()
	n.followInFlight = true
	n.noteFollow(func(r *FollowReport) { r.Polls++ })
	query := syncsvc.NewWatermarkQuery(func(wms []syncsvc.Watermark, err error) {
		n.post(func() { n.followDecide(peer, wms, err) })
	})
	n.followVia.Transport.Call(peer, transport.ChanSync, syncsvc.EncodeWatermarkRequest(), query)
}

// followDecide consumes a watermark answer: settle when the poll failed
// or the peer holds nothing new, otherwise open the delta pull.
func (n *Node) followDecide(peer types.ServerID, wms []syncsvc.Watermark, err error) {
	if err != nil {
		n.settleFollow(peer, err)
		return
	}
	// Durable nodes pass the tracker's O(#builders) horizon; a
	// storeless node (nil horizon) falls back to a DAG scan inside
	// DeltaIfBehind.
	var horizon map[types.ServerID]uint64
	if n.tracker != nil {
		horizon = n.tracker.Horizon()
	}
	pull, err := syncsvc.DeltaIfBehind(n.followVia.Roster, n.cfg.Server.DAG(), horizon, wms, n.followVia.MaxBlocks)
	if err != nil || pull == nil { // nil pull: in sync with this peer
		n.settleFollow(peer, err)
		return
	}
	n.noteFollow(func(rep *FollowReport) { rep.Deltas++ })
	sink := syncsvc.PullDone(pull, func() {
		n.post(func() { n.followAbsorb(peer, pull) })
	})
	n.followVia.Transport.Call(peer, transport.ChanSync, pull.Request(), sink)
}

// followAbsorb feeds a settled pull's validated blocks to the running
// server. Every absorbed block passed full validation whatever the
// stream's terminal error; a truncated or lying stream still yields its
// genuine prefix. Persist trouble is latched in Health (and recorded
// here). The absorption is bracketed in one store group commit — the
// pulled suffix journals with one write per segment run instead of one
// per block.
func (n *Node) followAbsorb(peer types.ServerID, pull *syncsvc.Pull) {
	if n.cfg.Store != nil {
		n.cfg.Store.BeginBatch()
	}
	absorbed, absorbErr, streamErr := syncsvc.AbsorbPull(pull, n.cfg.Server.AbsorbVerified)
	if n.cfg.Store != nil {
		n.recordErr(n.cfg.Store.FlushBatch())
	}
	n.recordErr(absorbErr)
	n.noteFollow(func(rep *FollowReport) { rep.Blocks += absorbed })
	n.settleFollow(peer, streamErr)
}

// settleFollow finishes the in-flight poll, classifying its outcome.
// A throttled or failed peer costs nothing beyond the poll period — the
// next poll rotates to the next peer; with a scorer configured, a
// throttling peer additionally loses standing in the rotation.
func (n *Node) settleFollow(peer types.ServerID, err error) {
	n.followInFlight = false
	if err == nil {
		return
	}
	n.noteFollow(func(rep *FollowReport) {
		if errors.Is(err, syncsvc.ErrThrottled) {
			rep.Throttled++
			n.cfg.Server.Scores().Penalize(peer, peerscore.Throttled)
		} else {
			rep.Errors++
		}
		rep.LastErr = err
	})
}

// noteFollow applies one mutation to the follow counters under the lock
// (FollowReport readers are concurrent).
func (n *Node) noteFollow(fn func(*FollowReport)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(&n.follow)
}

// maybeCheckpoint runs the automatic checkpoint policy: snapshot and
// compact the store once the WAL segment count, or the growth in on-disk
// bytes since the last compaction, crosses its configured threshold. It
// runs inside Tick, whose caller owns both the server's DAG and the
// store, so the snapshot is taken at a consistent point between events.
func (n *Node) maybeCheckpoint() {
	st := n.cfg.Store
	trigger := n.cfg.CheckpointEverySegments > 0 &&
		st.WALSegments() >= n.cfg.CheckpointEverySegments
	if !trigger && n.cfg.CheckpointEveryBytes > 0 {
		size, err := st.DiskSize()
		if err != nil {
			n.recordErr(err)
			return
		}
		trigger = size >= n.ckptFloor+n.cfg.CheckpointEveryBytes
	}
	if !trigger {
		return
	}
	stats, err := st.Checkpoint(n.cfg.Server.DAG())
	if err == nil {
		n.ckptFloor = stats.BytesAfter
	}
	n.recordErr(err)
}
