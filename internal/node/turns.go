package node

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/gossip"
	"blockdag/internal/metrics"
	"blockdag/internal/peerscore"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// DeliverBurst is the delivery turn: one burst of network payloads, its
// signature checks amortized and its journal writes group-committed
// (core.Server.DeliverBatch). A burst that inserted a peer's full block, or
// under load any peer's block, may be answered in the same turn (answer).
func (n *Node) DeliverBurst(batch []gossip.Message) {
	from := n.cfg.Server.DAG().Len()
	n.cfg.Server.DeliverBatch(batch)
	n.answer(from)
}

// Disseminate is the block turn: seal and broadcast the current block.
// A failure means the block could not be persisted (broadcast withheld,
// server unhealthy) or an internal invariant broke; it is recorded for
// Err, and the other turns keep running: delivery, interpretation, and
// FWD service stay up on an unhealthy server.
//
// A node that has been shown own blocks it does not hold (absorb) builds
// nothing until it does: it lost its disk, and a block built now would reuse
// a sequence number its peers already hold. Nor does a started durable node
// before its first poll has settled (FollowReport.First): until then it
// does not know what its peers were shown.
func (n *Node) Disseminate() { n.disseminate() }

// disseminate is Disseminate, reporting whether a block went out. A full
// block going out, whichever turn sealed it, puts the node under load for a
// period (answer).
func (n *Node) disseminate() bool {
	if n.ownHeld() < n.ownSeen.Load() || n.follow.First.Outcome == FirstPending {
		return false
	}
	b, err := n.cfg.Server.Disseminate()
	n.recordErr(err)
	if err != nil {
		return false
	}
	if n.blockFull(b) {
		n.loadUntil = n.cfg.Server.Now() + n.cfg.DisseminateEvery
	}
	return true
}

// fullBlockRatio is how many times a block's fixed bytes (blockFixedBytes)
// of payload make a block full (isFull). A node seals a full block its mempool
// holds before its tick (DisseminateIfFull), answers a peer's full block at
// once, and for a period after either answers its peers' progress too
// (answer). An early block carries at least 16 times what it costs beyond
// its payload, so the first rule adds at most 1/16 to wire and disk,
// whatever the load; the answers add at most two blocks a period.
const fullBlockRatio = 16

// blockFixedBytes is what a block costs beyond its payload in a roster of n:
// the signature, the header (builder, sequence number, length prefixes) and
// n + 1 references — 240 B at n = 4, so a block is full at 3 840 B.
func blockFixedBytes(n int) int { return crypto.SignatureSize + 16 + crypto.HashSize*(n+1) }

// isFull is the one definition of a full block, pending in the mempool or
// built: payload (labels and data) of fullBlockRatio times a block's fixed
// bytes, or block.MaxRequests requests.
func (n *Node) isFull(payload, requests int) bool {
	return payload >= fullBlockRatio*blockFixedBytes(n.cfg.Server.Roster().N()) || requests >= block.MaxRequests
}

// blockFull is isFull of a built block.
func (n *Node) blockFull(b *block.Block) bool {
	payload := 0
	for _, rq := range b.Requests {
		payload += len(rq.Label) + len(rq.Data)
	}
	return n.isFull(payload, len(b.Requests))
}

// DisseminateIfFull is the full-block turn: if the mempool holds a full
// block, seal it now through Disseminate, under the same guards, instead of
// waiting for the tick. If the pool still holds one, it wakes the loop
// again, so a backlog drains one block per loop iteration, between
// deliveries. It reports whether it sealed. The goroutine shell runs it when
// Submit wakes it; a stepped owner calls it every round.
func (n *Node) DisseminateIfFull() bool {
	if !n.poolFull() || !n.disseminate() {
		return false
	}
	n.cfg.Server.Counts().Add(metrics.BlocksSealedFull, 1)
	if n.poolFull() {
		n.wakeFull()
	}
	return true
}

// poolFull reports whether the mempool holds a full block. Safe for
// concurrent use: Submit asks outside the turns.
func (n *Node) poolFull() bool {
	pool := n.cfg.Server.Mempool()
	return n.isFull(pool.Bytes(), pool.Len())
}

// answer is the answer rule, the end of a delivery turn: it seals an own
// block now through Disseminate, under its guards, instead of waiting for
// the tick, when the DAG's blocks from the from-th on — those the burst
// inserted — include
//
//   - another builder's full block (reason full), or
//   - while the node is under load, any block of another builder (reason
//     progress).
//
// A node is under load for one DisseminateEvery after it sealed a full
// block, whichever turn sealed it, or inserted a peer's. The answer's
// references carry this node's echo of the requests it has seen and its
// READYs: under load a builder answers its peers' echoes with its READYs,
// and they answer back, at the loaded cadence instead of their ticks'.
// Without a full block there is no load, and nothing is answered.
//
// The bound: a node sends at most two answers in any window of one
// DisseminateEvery, timed on the server's clock, whatever its peers send —
// so it builds at most its tick plus two answers a period. A progress answer
// also waits half a period after the last answer; a full-block answer never
// does, so progress never holds one back beyond the window. Each answer
// costs every peer a signature check, so the window is what keeps a
// Byzantine sender from making a correct node build without bound. A
// buffered block (missing predecessors) counts only in the burst that
// inserts it; a pulled one never does.
func (n *Node) answer(from int) {
	peer, full := n.inserted(from)
	if !peer {
		return
	}
	now, period := n.cfg.Server.Now(), n.cfg.DisseminateEvery
	if full {
		n.loadUntil = now + period
	}
	reason := metrics.BlocksAnsweredFull
	switch {
	case now < n.answeredAt[0]+period: // two answers in the last period
		return
	case full:
	case now < n.loadUntil && now >= n.answeredAt[1]+period/2:
		reason = metrics.BlocksAnsweredProgress
	default:
		return
	}
	if n.disseminate() {
		n.answeredAt = [2]time.Duration{n.answeredAt[1], now}
		n.cfg.Server.Counts().Add(reason, 1)
	}
}

// inserted reports whether the DAG's blocks from the from-th on include a
// block another builder built, and whether one of those is full.
func (n *Node) inserted(from int) (peer, full bool) {
	d, self := n.cfg.Server.DAG(), n.cfg.Server.ID()
	base := len(d.Base())
	for i := from; i < d.Len() && !full; i++ {
		b, err := d.ReadRow(base + i)
		if err != nil || b.Builder == self {
			continue
		}
		peer, full = true, n.blockFull(b)
	}
	return peer, full
}

// wakeFull leaves the loop a full-block token, unless one is waiting.
func (n *Node) wakeFull() {
	select {
	case n.full <- struct{}{}:
	default:
	}
}

// Tick is the housekeeping turn: gossip's re-asks and, on a durable node,
// the store's interval fsync, the state seal/prune cycle and the follower —
// each paced on the server's clock, so calling Tick more often only makes
// them more punctual. A started node runs it every period, just before the
// period's block (Disseminate). The store is never rewritten: a prune
// writes its head and deletes the segments below the horizon.
//
// The follower pulls on gossip's evidence of lag, never on a clock: a
// buffered block got re-asked (FWD did not fill its gap within
// gossip.ResendAfter), or no peer's block has arrived for ResendAfter plus
// one block period — inbound silence (an asymmetric partition, a long
// pause), which FWD cannot see: nothing arrives to cite what is missing.
// Either way at most one pull a ResendAfter goes out (FollowPoll), the rate
// gossip re-asks at, and it reconverges the node in one streamed round
// trip. A healthy node, whose blocks arrive and whose gaps FWD fills at
// once, opens no sync call at all. A poll out longer than CatchUp.Timeout
// is abandoned with what it carried: no peer holds the follower up.
func (n *Node) Tick() {
	reasked := n.cfg.Server.Tick()
	if n.cfg.Store == nil {
		return
	}
	n.recordErr(n.cfg.Store.Tick())
	n.maybeSealState()
	now := n.cfg.Server.Now()
	if n.followInFlight && now-n.lastFollow >= n.via.Timeout {
		n.abandonPoll()
	}
	silent := now-max(n.quietFrom, n.cfg.Server.Heard()) >= gossip.ResendAfter+n.cfg.DisseminateEvery
	if (reasked || silent) && now-n.lastFollow >= gossip.ResendAfter {
		n.FollowPoll()
	}
}

// FollowPoll pulls from the next peer in rotation, whatever the evidence
// says — unless a poll is still in flight: at most one is, so a slow peer
// stretches the gap between pulls instead of stacking requests. The
// rotation is round-robin over the peers and skips a banned one. A peer that
// holds nothing new answers with an empty stream, from its counters; a
// throttled or failed peer costs nothing beyond the poll — the next one
// rotates on, at once while the first poll is pending (Start). A node
// without a store does not follow.
func (n *Node) FollowPoll() {
	if n.followInFlight || n.cfg.Store == nil {
		return
	}
	peer, ok := n.nextFollowPeer()
	if !ok { // no peer, or every one is banned; gossip still asks blocks' senders
		n.noteFollow(func(r *FollowReport) { r.First.end() })
		return
	}
	n.lastFollow = n.cfg.Server.Now()
	n.followInFlight = true
	n.noteFollow(func(r *FollowReport) { r.Polls++; r.State, r.Peer = FollowPulling, peer })
	abandon := n.PullFrom(peer, func(streamed uint64, absorbed int, err error) {
		n.followInFlight, n.abandonPoll = false, nil
		next := false
		n.noteFollow(func(rep *FollowReport) {
			rep.BehindBy = streamed
			if streamed > 0 {
				rep.Deltas++
			}
			rep.Blocks += absorbed
			switch {
			case err == nil:
			case errors.Is(err, syncsvc.ErrThrottled), errors.Is(err, syncsvc.ErrNotServing):
				rep.Throttled++
			default:
				rep.Errors++
			}
			rep.State, rep.LastErr = FollowIdle, err
			if f := &rep.First; f.Outcome == FirstPending {
				f.Blocks += absorbed
				switch {
				case err == nil:
					f.Outcome, f.Peer, f.Err = FirstCaughtUp, peer, nil
				case !errors.Is(err, syncsvc.ErrNotServing):
					f.Err = err
				}
				if n.followPeer >= len(n.via.Peers) { // from 0 on (Start): every peer asked
					f.end()
				}
				next = f.Outcome == FirstPending
			}
		})
		if next {
			n.FollowPoll()
		}
	})
	if n.followInFlight {
		n.abandonPoll = abandon
	}
}

// end settles a pending first poll no stream ended clean for: a cold start
// unless a peer failed otherwise than by not serving yet.
func (f *FirstPoll) end() {
	if f.Outcome == FirstPending {
		f.Outcome = FirstColdStart
		if f.Err != nil {
			f.Outcome = FirstFailed
		}
	}
}

// nextFollowPeer advances the rotation cursor to the next peer not banned.
func (n *Node) nextFollowPeer() (types.ServerID, bool) {
	for range n.via.Peers {
		peer := n.via.Peers[n.followPeer%len(n.via.Peers)]
		n.followPeer++
		if !n.cfg.Server.Scores().Banned(peer) {
			return peer, true
		}
	}
	return 0, false
}

// noteFollow applies one mutation to the follow counters under the lock
// (FollowReport readers are concurrent).
func (n *Node) noteFollow(fn func(*FollowReport)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	fn(&n.follow)
}

// PullFrom is the one catch-up primitive beside FWD, behind the follower's
// polls and the simulator's recovery: tell peer what this node holds, get
// every block it lacks and, when the stream settles, absorb it as a turn of
// its own (post) and tell settled how many blocks the stream carried, how
// many that added and what went wrong, if anything. The owner abandons a
// stream it has waited long enough for with the returned function, which
// settles it right there with what has arrived: a loop never posts to itself.
//
// The stream's blocks come signature-checked (syncsvc.Pull) and enter
// the live DAG through core.Server.AbsorbVerified in stream order, inside
// one store group commit: structure is checked where gossip's is, and the
// first block the DAG refuses ends the absorb and becomes the stream's
// error. Whatever the error, the blocks before it are genuine and
// journaled like any others, and the next pull asks only for the rest. A
// peer that served garbage is charged for it. Own blocks this node did
// not hold (disk loss) continue its chain as they are inserted, and hold
// block building back while the stream has shown more of them than it
// delivered.
func (n *Node) PullFrom(peer types.ServerID, settled func(streamed uint64, absorbed int, err error)) (abandon func()) {
	var pull *syncsvc.Pull
	var abandoned, done atomic.Bool
	turn := func() {
		if done.CompareAndSwap(false, true) {
			absorbed, err := n.absorb(peer, pull)
			settled(pull.Streamed(), absorbed, err)
		}
	}
	pull = syncsvc.NewPull(n.via.Roster, syncsvc.Held(n.cfg.Server.DAG()), 0, func() {
		if !abandoned.Load() {
			n.post(turn)
		}
	})
	cancel := n.via.Transport.Call(peer, transport.ChanSync, pull.Request(), pull)
	return func() {
		abandoned.Store(true)
		cancel()
		pull.OnDone(errors.New("node: pull abandoned before the stream ended"))
		turn()
	}
}

// absorb is PullFrom's second half, run by the server's owner.
func (n *Node) absorb(peer types.ServerID, pull *syncsvc.Pull) (absorbed int, err error) {
	blocks, err := pull.Result()
	srv, st := n.cfg.Server, n.cfg.Store
	if st != nil {
		st.BeginBatch()
	}
	for _, b := range blocks {
		if b.Builder == srv.ID() {
			// Signed by this server: if the DAG lacks it, it was published
			// before a disk loss, and whether or not this stream gets as far
			// as inserting it, its sequence number is taken (Disseminate).
			n.ownSeen.Store(max(n.ownSeen.Load(), b.Seq+1))
		}
	}
	for _, b := range blocks {
		if srv.DAG().Contains(b.Ref()) {
			continue // a forked builder's chain is re-sent whole
		}
		if aerr := srv.AbsorbVerified(b); aerr != nil {
			if srv.DAG().Contains(b.Ref()) {
				n.recordErr(aerr) // inserted, not journaled: ours to fix, not the peer's
			} else {
				err = fmt.Errorf("%w: block %v rejected: %w", syncsvc.ErrBadStream, b.Ref(), aerr)
			}
			break
		}
		absorbed++
	}
	if st != nil {
		n.recordErr(st.FlushBatch())
	}
	if err != nil {
		err = fmt.Errorf("peer %v: %w", peer, err)
		n.charge(peer, err)
	}
	return absorbed, err
}

// charge maps a failed exchange with a sync peer onto a signal against it:
// refusal by admission control, a block that fails its signature check,
// or anything else no correct server sends (ErrBadStream). A stream that
// merely stopped — link death, timeout — costs nothing: the peer may be
// as much a victim as we are. Nor does a peer not serving yet.
func (n *Node) charge(peer types.ServerID, err error) {
	scores := n.cfg.Server.Scores()
	switch {
	case errors.Is(err, syncsvc.ErrThrottled):
		scores.Penalize(peer, peerscore.Throttled)
	case errors.Is(err, dag.ErrBadSignature), errors.Is(err, dag.ErrBuilderUnknown):
		scores.Penalize(peer, peerscore.BadSignature)
	case errors.Is(err, syncsvc.ErrBadStream):
		scores.Penalize(peer, peerscore.MalformedFrame)
	}
}

// Stream is catch-up's serving half (syncsvc.Source): a first turn picks the
// rows the horizon lacks, up to the heads as they stand (dag.DAG.RowsBeyond),
// each later one reads about chunk bytes of them (dag.DAG.ReadRow; a pruned
// row is left out), and send gets them between turns, on the caller's
// goroutine: the owner never waits on a socket, a delivery on one chunk.
func (n *Node) Stream(next map[types.ServerID]uint64, chunk int, send func([]*block.Block) error) error {
	d := n.cfg.Server.DAG()
	var rows []int32
	err := n.inTurn(func() error { rows = d.RowsBeyond(next); return nil })
	for err == nil && len(rows) > 0 {
		var batch []*block.Block
		err = n.inTurn(func() (err error) {
			batch, rows, err = readChunk(d, rows, chunk)
			return err
		})
		if err == nil && len(batch) > 0 {
			err = send(batch)
		}
	}
	return err
}

// readChunk reads rows off the front until chunk bytes are read, and returns
// them with the rows left.
func readChunk(d *dag.DAG, rows []int32, chunk int) ([]*block.Block, []int32, error) {
	var batch []*block.Block
	for size := 0; len(rows) > 0 && size < chunk; rows = rows[1:] {
		b, err := d.ReadRow(int(rows[0]))
		switch {
		case errors.Is(err, dag.ErrPruned):
			continue
		case err != nil:
			return nil, rows, err
		}
		batch, size = append(batch, b), size+len(b.Encode())
	}
	return batch, rows, nil
}

// inTurn runs fn as a turn of the owner (post) and returns its error, or
// syncsvc.ErrNotServing if the node stops first.
func (n *Node) inTurn(fn func() error) error {
	ran := make(chan error, 1)
	n.post(func() { ran <- fn() })
	select {
	case err := <-ran:
		return err
	case <-n.done:
		return syncsvc.ErrNotServing
	}
}
