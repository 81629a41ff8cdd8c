package node

import (
	"errors"
	"fmt"
	"sync/atomic"

	"blockdag/internal/block"
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
// (core.Server.DeliverBatch), ended by an answer if the schedule calls for
// one. An own block a peer sent, one this node published before it lost its
// DAG, holds block building back until the DAG holds the own chain up to
// it, as a pulled one does (absorb).
func (n *Node) DeliverBurst(batch []gossip.Message) {
	srv := n.cfg.Server
	from := srv.DAG().Len()
	woke := n.interpreting(func() { srv.DeliverBatch(batch) })
	n.ownSeen.Store(max(n.ownSeen.Load(), srv.OwnSeen()))
	now, d := srv.Now(), srv.DAG()
	for i, base := from, len(d.Base()); i < d.Len(); i++ {
		if b, err := d.ReadRow(base + i); err == nil && b.Builder != srv.ID() {
			n.sched.inserted(now, b.Builder, blockFull(b))
		}
	}
	if n.sched.delivered(now, woke) == sealAnswer {
		n.disseminate(sealAnswer)
	}
}

// Disseminate is the block turn: seal and broadcast the current block if the
// schedule finds a reason (schedule.tick), or else announce the own head to
// a peer that has not read an own out-buffer, then, on a durable node, run the
// store's interval fsync. After the block that fsync is a no-op whenever a
// block went out — an own block forces the journal durable before gossip
// sends it — so a period costs one fsync, not the received blocks' and then
// the own block's; it still syncs a turn that seals none (no reason, the
// guards below, a withheld block).
//
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
func (n *Node) Disseminate() {
	if !n.reason() || !n.disseminate(sealTick) {
		n.announce()
	}
	if n.cfg.Store != nil {
		n.recordErr(n.cfg.Store.Tick())
	}
}

// sealCounts is the counter of each early reason's blocks.
var sealCounts = [...]metrics.ID{
	sealFull:   metrics.BlocksSealedFull,
	sealIdle:   metrics.BlocksSealedIdle,
	sealAnswer: metrics.BlocksAnswered,
}

// disseminate is Disseminate without the fsync, sealing for why: it reports
// whether a block went out, tells the schedule, and counts an early one.
func (n *Node) disseminate(why reason) bool {
	if n.ownHeld() < n.ownSeen.Load() || n.follow.First.Outcome == FirstPending {
		return false
	}
	srv := n.cfg.Server
	var b *block.Block
	var err error
	start := srv.Now()
	woke := n.interpreting(func() { b, err = srv.Disseminate() })
	n.recordErr(err)
	if err != nil {
		return false
	}
	n.sched.sealed(start, srv.Now(), why, blockFull(b), woke)
	clear(n.owed)
	if why != sealTick {
		srv.Counts().Add(sealCounts[why], 1)
	}
	return true
}

// DisseminateEarly is the early turn: seal now through Disseminate, under
// the same guards, if the schedule gives a reason not to wait for the tick
// (a full block or an idle node). If the pool still holds a full block, it
// wakes the loop again, so a backlog drains one block per loop iteration,
// between deliveries. It reports whether it sealed. The goroutine shell
// runs it when Submit wakes it; a stepped owner calls it every round.
func (n *Node) DisseminateEarly() bool {
	srv := n.cfg.Server
	why := n.sched.early(srv.Now(), n.poolFull(), srv.Mempool().Len() > 0, srv.Interpreter().Running())
	if why == sealTick || !n.disseminate(why) {
		return false
	}
	if why == sealFull && n.poolFull() {
		n.wake()
	}
	return true
}

// announce is the period turn that seals nothing. An idle cluster sends a
// peer nothing, so a peer that missed an own out-buffer — healed from a
// partition, or whose copy of an own block was lost — would wait for the
// next request to hear of it. The own chain's head goes to each peer whose
// chain, as this node knows it, has not read an own out-buffer, once that
// has held for idlePeriods period turns without an own block, again at
// twice and four times … that, and then every announceEvery: one message
// and no block, where a tick's block went to every peer every period. The
// peer fetches what it lacks below the head (FWD), and what it then has not
// read gives it a reason to build (Interpreter.Unread).
func (n *Node) announce() {
	srv := n.cfg.Server
	it, self := srv.Interpreter(), srv.ID()
	for p := range n.owed {
		peer := types.ServerID(p)
		if peer == self || !it.UnreadOf(peer, self) {
			n.owed[p] = 0
			continue
		}
		n.owed[p]++
		if k := n.owed[p]; k >= idlePeriods && (k&(k-1) == 0 || k%announceEvery == 0) {
			srv.Announce(peer)
		}
	}
}

// announceEvery is the most period turns between two announcements to a
// peer that stays behind (announce), a power of two: a peer down for good
// costs one message in it, and a peer healed after a long partition waits
// at most that long to be shown what it missed.
const announceEvery = 16 * idlePeriods

// reason reports whether the period turn has a reason to seal its tick: the
// facts schedule.tick weighs, read of the mempool and the interpreter.
func (n *Node) reason() bool {
	srv := n.cfg.Server
	it, id := srv.Interpreter(), srv.ID()
	prunes := n.cfg.State != nil // the one reader of Interpreter.Cut (maybePruneState)
	return n.sched.tick(srv.Mempool().Len() > 0, it.Running(), it.Unread(id), prunes && !it.Passed(id))
}

// poolFull reports whether the mempool holds a full block. Safe for
// concurrent use: Submit asks outside the turns.
func (n *Node) poolFull() bool {
	pool := n.cfg.Server.Mempool()
	return isFull(pool.Bytes(), pool.Len())
}

// interpreting runs turn, a delivery or an own block, and tells the
// schedule whether an instance ran before and after it (schedule.ran),
// reporting whether the turn woke the node. A pull (absorb) is no such
// turn: it never wakes a node, and leaves the idle clock to the next one.
func (n *Node) interpreting(turn func()) (woke bool) {
	srv := n.cfg.Server
	start, before := srv.Now(), srv.Interpreter().Running()
	turn()
	return n.sched.ran(start, srv.Now(), before, srv.Interpreter().Running())
}

// wake leaves the loop a wake token, unless one is waiting.
func (n *Node) wake() {
	select {
	case n.wakes <- struct{}{}:
	default:
	}
}

// Tick is the housekeeping turn: the interpreter's release, gossip's
// re-asks and, on a durable node, the state seal/prune cycle and the
// follower — each paced on the server's clock, so calling Tick more often
// only makes them more punctual. A started node runs it every period, just
// before the period's block (Disseminate), which runs the store's interval
// fsync after it. The store is never rewritten: a prune writes its head and
// deletes the segments below the horizon.
//
// The release is the one the next block would start with
// (core.Server.Settle): what every chain has read goes, from the
// interpreter and from the DAG's RAM, and the quiet point and the cut stand
// as of the last block, which may be the last for a while. Under load the
// next block repeats it; once a period is what an idle node needs.
//
// The follower pulls on gossip's evidence of lag, never on a clock: a
// buffered block got re-asked (FWD did not fill its gap within
// gossip.ResendAfter), or no peer's block has arrived for ResendAfter plus
// one block period while the node had a reason to build — inbound silence
// (an asymmetric partition, a long pause), which FWD cannot see: nothing
// arrives to cite what is missing. An idle cluster is silent by design, so
// silence counts only from the last turn that found no reason.
// Either way at most one pull a ResendAfter goes out (FollowPoll), the rate
// gossip re-asks at, and it reconverges the node in one streamed round
// trip. A healthy node, whose blocks arrive and whose gaps FWD fills at
// once, opens no sync call at all. A poll out longer than CatchUp.Timeout
// is abandoned with what it carried: no peer holds the follower up.
func (n *Node) Tick() {
	n.cfg.Server.Settle()
	reasked := n.cfg.Server.Tick()
	if n.cfg.Store == nil {
		return
	}
	n.maybeSealState()
	now := n.cfg.Server.Now()
	if !n.reason() {
		n.quietFrom = now
	}
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
