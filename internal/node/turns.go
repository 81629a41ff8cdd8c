package node

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

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
// (core.Server.DeliverBatch). Under load, a burst that completes a quorum
// of peers' blocks is answered in the same turn (answer); a burst that ends
// the node's idleness loads it. An own block a peer sent, one this node
// published before it lost its DAG, holds block building back until the
// DAG holds the own chain up to it, as a pulled one does (absorb).
func (n *Node) DeliverBurst(batch []gossip.Message) {
	srv := n.cfg.Server
	from := srv.DAG().Len()
	woke := n.interpreting(func() { srv.DeliverBatch(batch) })
	n.ownSeen.Store(max(n.ownSeen.Load(), srv.OwnSeen()))
	n.answer(from, woke)
}

// Disseminate is the block turn: seal and broadcast the current block,
// then, on a durable node, run the store's interval fsync. After the block
// that fsync is a no-op whenever a block went out — an own block forces the
// journal durable before gossip sends it — so a period costs one fsync, not
// the received blocks' and then the own block's; it still syncs a turn that
// seals none (the guards below, a withheld block).
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
	n.disseminate()
	if n.cfg.Store != nil {
		n.recordErr(n.cfg.Store.Tick())
	}
}

// disseminate is Disseminate without the fsync, reporting whether a block
// went out. Whichever turn sealed it, a block going out starts the next
// quorum afresh, and a full one, or one that ends the node's idleness, puts
// the node under load for a period (answer).
func (n *Node) disseminate() bool {
	if n.ownHeld() < n.ownSeen.Load() || n.follow.First.Outcome == FirstPending {
		return false
	}
	var b *block.Block
	var err error
	woke := n.interpreting(func() { b, err = n.cfg.Server.Disseminate() })
	n.recordErr(err)
	if err != nil {
		return false
	}
	n.knowsTip = true
	clear(n.heard)
	if n.blockFull(b) || woke {
		n.loadUntil = n.cfg.Server.Now() + n.cfg.DisseminateEvery
	}
	return true
}

// fullBlockBytes is the payload (labels and data) that makes a block full
// (isFull), whatever the roster's size. A node seals a full block its
// mempool holds before its tick (DisseminateEarly), and for a period after
// sealing or inserting one answers a quorum of its peers' blocks (answer).
// An early block carries at least 2 KiB of payload against 80 + 32(n + 1) B
// of fixed bytes (the signature, the header and n + 1 references), so the
// first rule adds at most 11.7 % to wire and disk at n = 4, 21.1 % at
// n = 10 and 30.5 % at n = 16, whatever the load; the answers add at most
// two blocks a period. A threshold that grew with n would make a loaded
// builder's fill wait, and so its latency, grow with the roster.
const fullBlockBytes = 2 << 10

// idlePeriods is how many periods no instance may have run on any chain for
// the node to be idle (idle). An idle node seals a submitted request at once
// (DisseminateEarly) instead of at its tick, and a turn that ends its
// idleness puts it under load for a period, so the answers carry the
// request's phases at network speed. Each wake costs about nine blocks at
// n = 4 — the seal and two answers a node — so the threshold sets how often
// a light load pays it: dagbench's sparse load (Poisson, 10 requests a
// second) read wire +1.1 % (seed 1) and +4.5 % (seed 7) at two periods,
// +2.3 % at three (seed 7), and no wake inside its window at four, where
// only a lull of most of a second wakes the cluster (seed 3: +1.2 %).
const idlePeriods = 4

// isFull is the one definition of a full block, pending in the mempool or
// built: fullBlockBytes of payload, or block.MaxRequests requests, at every
// roster size.
func (n *Node) isFull(payload, requests int) bool {
	return payload >= fullBlockBytes || requests >= block.MaxRequests
}

// blockFull is isFull of a built block.
func (n *Node) blockFull(b *block.Block) bool {
	payload := 0
	for _, rq := range b.Requests {
		payload += len(rq.Label) + len(rq.Data)
	}
	return n.isFull(payload, len(b.Requests))
}

// DisseminateEarly is the early turn: if the mempool holds a full block, or
// the node is idle (idle) and the pool holds a request, seal it now through
// Disseminate, under the same guards, instead of waiting for the tick. If the
// pool still holds a full block, it wakes the loop again, so a backlog drains
// one block per loop iteration, between deliveries. An idle seal counts as
// the end of an idle stretch, whatever the request starts, so a node seals
// at most one in any idlePeriods periods. It reports whether it sealed. The
// goroutine shell runs it when Submit wakes it; a stepped owner calls it
// every round.
func (n *Node) DisseminateEarly() bool {
	switch {
	case n.poolFull():
		if !n.disseminate() {
			return false
		}
		n.cfg.Server.Counts().Add(metrics.BlocksSealedFull, 1)
		if n.poolFull() {
			n.wake()
		}
	case n.cfg.Server.Mempool().Len() > 0 && n.idle():
		if !n.disseminate() {
			return false
		}
		n.busyAt = n.cfg.Server.Now()
		n.cfg.Server.Counts().Add(metrics.BlocksSealedIdle, 1)
	default:
		return false
	}
	return true
}

// poolFull reports whether the mempool holds a full block. Safe for
// concurrent use: Submit asks outside the turns.
func (n *Node) poolFull() bool {
	pool := n.cfg.Server.Mempool()
	return n.isFull(pool.Bytes(), pool.Len())
}

// answer is the answer rule, the end of a delivery turn: a node under load
// seals an own block now through Disseminate, under its guards, instead of
// waiting for the tick, once blocks of n − f − 1 other builders — a quorum,
// n − f, counting itself — were inserted since its own last block, whichever
// turn sealed that (heard). The blocks the burst inserted, the DAG's from the
// from-th on, join that set first.
//
// A node is under load for one DisseminateEvery after it sealed a full
// block, whichever turn sealed it, or inserted a peer's; and after a turn
// that found it idle and left an instance running (woke): its own block, or
// a delivered one, started an instance — a pulled one never counts, and
// neither does a request that starts nothing, such as a replay of a finished
// label. The answer's references carry this node's echo of the requests it
// has seen and its READYs: a BRB phase needs 2f + 1 distinct echoes or
// READYs, so under load a quorum's blocks are answered by the next phase's,
// at the loaded cadence instead of the builders' ticks. Without a full block
// or a wake there is no load, and nothing is answered.
//
// The bound: a node sends at most two answers in any window of one
// DisseminateEvery, timed on the server's clock, whatever its peers send —
// so it builds at most its tick plus two answers a period, and an idle seal
// in any idlePeriods periods (DisseminateEarly). Each answer costs
// every peer a signature check, so the window is what keeps a Byzantine
// sender from making a correct node build without bound. A buffered block
// (missing predecessors) counts only in the burst that inserts it; a pulled
// one never does.
func (n *Node) answer(from int, woke bool) {
	now, period := n.cfg.Server.Now(), n.cfg.DisseminateEvery
	if n.inserted(from) || woke {
		n.loadUntil = now + period
	}
	r := n.cfg.Server.Roster()
	if now >= n.loadUntil || now < n.answeredAt[0]+period || n.heardFrom() < r.N()-r.F()-1 {
		return
	}
	if n.disseminate() {
		n.answeredAt = [2]time.Duration{n.answeredAt[1], now}
		n.cfg.Server.Counts().Add(metrics.BlocksAnswered, 1)
	}
}

// inserted adds the builders of the DAG's blocks from the from-th on, other
// than this node, to heard, and reports whether one of those blocks is full.
func (n *Node) inserted(from int) (full bool) {
	d, self := n.cfg.Server.DAG(), n.cfg.Server.ID()
	base := len(d.Base())
	for i := from; i < d.Len(); i++ {
		b, err := d.ReadRow(base + i)
		if err != nil || b.Builder == self {
			continue
		}
		n.heard[b.Builder/64] |= 1 << (b.Builder % 64)
		full = full || n.blockFull(b)
	}
	return full
}

// idle reports whether the node is idle: no instance runs on any chain
// tip (interpret.Interpreter.Running), none has since busyAt, idlePeriods
// periods ago or more — never, since New, counts as long ago — and the node
// knows its own chain's tip (knowsTip).
func (n *Node) idle() bool {
	return n.knowsTip && !n.cfg.Server.Interpreter().Running() &&
		n.cfg.Server.Now()-n.busyAt >= idlePeriods*n.cfg.DisseminateEvery
}

// interpreting runs turn, a delivery or an own block, and keeps the idle
// clock: a turn that finds an instance running, or leaves one, sets busyAt
// to now. It reports whether the turn woke the node: found it idle and left
// an instance running. A pull (absorb) never wakes a node, and its turn
// leaves the clock to the next one.
func (n *Node) interpreting(turn func()) (woke bool) {
	it := n.cfg.Server.Interpreter()
	idle, running := n.idle(), it.Running()
	turn()
	if running = running || it.Running(); running {
		n.busyAt = n.cfg.Server.Now()
	}
	return idle && running
}

// heardFrom is how many other builders' blocks were inserted since the own
// last block.
func (n *Node) heardFrom() int {
	count := 0
	for _, w := range n.heard {
		count += bits.OnesCount64(w)
	}
	return count
}

// wake leaves the loop a wake token, unless one is waiting.
func (n *Node) wake() {
	select {
	case n.wakes <- struct{}{}:
	default:
	}
}

// Tick is the housekeeping turn: gossip's re-asks and, on a durable node,
// the state seal/prune cycle and the follower — each paced on the server's
// clock, so calling Tick more often only makes them more punctual. A
// started node runs it every period, just before the period's block
// (Disseminate), which runs the store's interval fsync after it. The store
// is never rewritten: a prune writes its head and deletes the segments
// below the horizon.
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
