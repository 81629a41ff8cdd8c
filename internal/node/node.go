// Package node is the runtime of a core.Server: one runtime, two shells.
//
// The runtime proper is a set of turns — synchronous methods that each
// run one event to completion against the deterministic state machine:
// DeliverBurst, Disseminate (Algorithm 3's "repeatedly
// gssp.disseminate()"; requests need no turn, the mempool it drains is
// safe for concurrent use — Submit — and on a durable node the store's
// interval fsync after the block), DisseminateEarly (the same, early) and
// Tick (FWD retries, state seal and prune, and the live follower's pull on
// evidence of lag). When a node builds — its tick, a full block, an idle
// node's request, an answer to a delivery — is the schedule's to say
// (schedule.go): the turns feed it events and seal when it gives a reason.
// Turns read time from the server's clock only (core.Server.Now) and
// never wait; what cannot finish inside one — a settled delta pull —
// comes home through one internal hook, post, as a turn of its own.
// Whoever calls the turns owns the server: one caller at a time.
//
// Catch-up is FWD and one pull, PullFrom — tell a peer what this node holds,
// get what it lacks and absorb the stream into the live DAG inside one store
// group commit — taken by the follower's polls and the simulator's recovery.
// A pulled block is validated where a gossiped one is
// (core.Server.AbsorbVerified) and journaled by the same sink. A node that
// lost its disk re-learns its own blocks 0..k this way, and gossip continues
// its chain from them: its next block is k+1. While a stream has shown own
// blocks the DAG lacks, and on a started durable node until its first poll
// has settled, it builds nothing (Disseminate). That wait is the one New's
// blocking catch-up gave, so it keeps aim 3 ("a correct server never
// equivocates — including across a crash") as that did: deployed, a node
// inserts nothing before that poll goes out (deploy.Boot binds gossip after
// Start), and seals nothing before it has settled. The serving half is Stream: the rows a peer lacks, read in bounded
// turns, so a k-block lag costs k block reads.
//
// The goroutine shell (Start/Stop) is the part that waits: it owns the
// loop goroutine, the ingestion channel, the wake Submit leaves
// and one ticker, whose period turn is Tick then Disseminate; it runs a turn
// per event and makes post a send to that loop. The other shell is the
// simulator (package cluster): it never calls Start, steps the same period
// turn from simnet events on its virtual clock — and DisseminateEarly every
// round, its stand-in for the wake — and Deliver and post run inline, the
// transport's callback being on the event loop already. A Node that is
// never started starts no goroutine.
//
// New wires the operational services around the server, the same for
// both shells: durable persistence with the own-block externalization
// barrier and the convictions in its head (Config.Store), the follower
// (every node with a store; whom it pulls from: Config.CatchUp), the state
// seal/prune cycle (Config.State) and the indication broker, whose replay
// index is a gateway's to claim: a node nobody awaits on keeps no copy of
// what it indicated. A running node never rewrites its store: the block DAG
// is append-only, and a cut below a sealed state (store.Store.PruneTo)
// writes only the store's head and deletes the segments below the horizon.
// What the node holds is its DAG's to say: the watermark vector
// (Watermarks), the horizon a pull states and the own chain's position
// (RecoveryReport.OwnHeld) are the DAG's chain heads (dag.DAG.Head), which
// any goroutine may read, so they cannot drift from the DAG across prunes,
// restarts and pulls.
package node

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/gossip"
	"blockdag/internal/roster"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/types"
)

// Config parameterizes the runtime.
type Config struct {
	// Server is the deterministic shim to drive. Required. The server's
	// Clock should be the one returned by Clock().
	Server *core.Server
	// Identity, if non-nil, names the roster identity this node runs as
	// (roster file plus key file, package roster). New cross-checks it
	// against the Server: a node keyed as the wrong roster member fails
	// at startup instead of producing blocks every peer discards and
	// failing every transport handshake.
	Identity *roster.Identity
	// DisseminateEvery is the block production period (default 50ms): the
	// tick that builds a block whatever the mempool holds, after the
	// housekeeping turn (Tick) on a started node. The schedule (schedule.go)
	// times its early blocks in these periods; the tick keeps its phase.
	DisseminateEvery time.Duration
	// Store, if non-nil, makes the server durable: New installs it as the
	// server's journal (core.Server.SetJournal: the head's proofs are
	// replayed, so a ban survives the restart, new convictions are
	// journaled, and the persistence sink force-syncs own blocks before
	// gossip broadcasts them) and replays its blocks through
	// core.Server.Restore (validating them in the live DAG and resuming the
	// pre-crash chain; RecoveryReport). The node then follows (FollowPoll):
	// a started one's loop begins with the first poll, and Tick drives
	// interval fsync and a poll whenever gossip shows lag. The store must be
	// freshly opened (store.Open) and the server freshly built; the caller
	// keeps ownership and closes the store after Stop, which on a started
	// node leaves the WAL fully synced.
	Store *store.Store
	// CatchUp, if non-nil, is whom the follower pulls from, in rotation and
	// skipping a banned peer: Transport and Peers (Roster defaults to the
	// server's; without CatchUp, every other roster member over the server's
	// transport), a poll out longer than Timeout (default 30s) abandoned
	// (Tick). It turns nothing on: every node with a Store follows.
	CatchUp *syncsvc.FetchConfig
	// FollowEvery and CheckpointEverySegments are ignored.
	//
	// Deprecated: the follower pulls on evidence of lag (Tick), and a running
	// node never rewrites its store: a cut (State) writes only the store's
	// head and deletes segments. The fields exist only because the frozen
	// bench/cluster.go assigns them, and go when bench/ drops those lines.
	FollowEvery             time.Duration
	CheckpointEverySegments int
	// State, if non-nil, is the caller-owned replicated state machine the
	// runtime seals and restores, and prunes history behind (state.go): the
	// caller writes deliveries into State.Tree and raises the frontier with
	// State.AdvanceTo from its indication callback (loop goroutine), as
	// examples/tcp does. A sealed commitment becomes the checkpoint
	// of the store's head, so it requires Store; the sync server serves
	// that head to joining peers, signed with the node's key
	// (syncsvc.Server.Signer). History pruning is on exactly when State is.
	State *state.Machine
}

// RecoveryReport records what New replayed from Config.Store, and where
// the own chain stands now.
type RecoveryReport struct {
	// Store is what store.Open read and repaired; its Blocks were replayed
	// into the live DAG. Took is how long that replay (signature batch,
	// insertion, interpretation) ran.
	Store store.OpenReport
	Took  time.Duration
	// OwnHeld is 1 + the highest own sequence number in the DAG, a
	// pruned-history stand-in included (its own chain head), OwnSeen
	// the same over the own blocks a peer has shown this node, by a stream
	// or by gossip, held or not. While OwnHeld < OwnSeen the node builds nothing
	// (Disseminate): it lost its disk and its old blocks are on their way
	// back.
	OwnHeld, OwnSeen uint64
}

// The live follower is in exactly one of these states.
const (
	FollowIdle    = "idle"    // between polls
	FollowPulling = "pulling" // a delta pull is out
)

// The first poll is in exactly one of these once a durable node started.
const (
	FirstPending   = "pending"    // asking peer after peer; nothing is sealed
	FirstCaughtUp  = "caught_up"  // a stream ended clean (Peer)
	FirstColdStart = "cold_start" // every peer asked was not serving yet
	FirstFailed    = "failed"     // every peer asked, none ended clean (Err)
)

// FirstPoll is the first poll's outcome: a started durable node's loop asks
// the peers in rotation, at once after each failure, until a stream ends
// clean or every one has been asked. Blocks counts what it absorbed, Err is
// its last failure other than a peer not serving yet (nil once caught up).
type FirstPoll struct {
	Outcome string // a First state; empty before Start, or without a store
	Peer    types.ServerID
	Blocks  int
	Err     error
}

// FollowReport is the live follower's state and its counters so far; a
// node without a store does not follow, and its State is empty.
type FollowReport struct {
	State    string         // FollowIdle or FollowPulling
	Peer     types.ServerID // the peer being pulled from, unless idle
	BehindBy uint64         // blocks the last poll's stream carried: what that peer held beyond this node's horizon
	Polls    int            // pulls issued, the first poll's included
	Deltas   int            // of those, the ones that carried a block (the peer was ahead)
	Blocks   int            // blocks absorbed via those pulls
	// Throttled counts polls a peer refused — by its admission policy, or
	// because it was not serving yet — the cue (already acted on) to rotate
	// to the next peer; Errors the polls that failed any other way, one
	// abandoned after CatchUp.Timeout included.
	Throttled, Errors int
	// LastErr is the last poll's failure, nil when it ended clean
	// (diagnostics: a follower riding a healthy cluster works through it).
	LastErr error
	First   FirstPoll
}

// Clock returns a monotonic clock suitable for core.Config.Clock on the
// real-time path.
func Clock() func() time.Duration {
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

// Node is the runtime of one core.Server: stepped turn by turn by its
// owner, or run on its own goroutine after Start.
type Node struct {
	cfg Config

	// The ingestion channel is buffered beyond the usual one-or-none
	// guideline deliberately: it absorbs network bursts while the loop
	// is mid-block; senders (transport read goroutines) block when the
	// buffer fills, which is the desired backpressure.
	in chan gossip.Message
	// posted carries async completions to the loop of a started node
	// (looping); see post. stepMu keeps a delivery turn run by Deliver on a
	// node not yet started from overlapping another, or the loop: Start takes
	// it to set looping.
	posted  chan func()
	looping atomic.Bool
	stepMu  sync.Mutex
	// wakes is the early turn's wake: Submit, having admitted a request,
	// leaves a token here for the loop (DisseminateEarly), which alone knows
	// whether the schedule seals it early. One slot, never waited on: a flood
	// coalesces into one token. sched is when the node builds. Owner only.
	wakes chan struct{}
	sched schedule

	cancel context.CancelFunc
	done   chan struct{}
	wg     sync.WaitGroup

	mu       sync.Mutex
	started  bool
	firstErr error
	follow   FollowReport
	// stopHooks run at the head of Stop, before the loop is cancelled —
	// the graceful-drain seam: the client gateway registers its shutdown
	// here so in-flight HTTP requests finish (and long-polls get a clean
	// terminal response via the closed broker) while the server still
	// lives. stopOnce makes repeated Stops run the drain exactly once.
	stopHooks []func()
	stopOnce  sync.Once

	// broker fans the server's indication stream out to concurrent
	// subscribers (Indications). Installed as an indication observer
	// before the Restore replay, so its replay index covers pre-crash
	// indications too — for a gateway that claims it before the node's
	// first publication after New.
	broker *IndicationBroker

	// lastSeal/lastSealedSlot pace the seal cycle. Owner only.
	lastSeal       time.Duration
	lastSealedSlot uint64

	recovery RecoveryReport
	// ownSeen is RecoveryReport's OwnSeen; OwnHeld is the DAG's own chain
	// head (ownHeld). They differ only on a node that lost its disk, while
	// its old blocks are on their way back — by a later pull, or by FWD
	// behind the gossiped blocks that cite them; gossip continues the chain
	// from them as they arrive, and until then Disseminate builds nothing.
	// Written by the owner only; atomic for RecoveryReport's readers.
	ownSeen atomic.Uint64

	// via is whom and how the node pulls. lastFollow is when the last poll
	// was issued, followInFlight tracks the outstanding poll (at most one)
	// and abandonPoll abandons it, followPeer is the rotation cursor over
	// the peers. quietFrom is where inbound silence counts from until a
	// peer's block arrives: the end of New, and Start. Owner only.
	via            syncsvc.FetchConfig
	lastFollow     time.Duration
	followInFlight bool
	abandonPoll    func()
	followPeer     int
	quietFrom      time.Duration
}

// New validates the config and prepares a node. With Config.Store set,
// New performs the recover-resume handshake: the proofs in the store's
// head are replayed (bans are in force before the first delivery), the store's
// persistence sink is installed — before any block can be inserted — and
// the store's log is absorbed into the live DAG, the follower's zeroth
// pull with the disk as the peer, so the server continues its pre-crash
// chain. A log the DAG refuses fails New and leaves the caller's server
// holding the blocks before the refusal: build a fresh one to retry. New
// makes no network call.
func New(cfg Config) (*Node, error) {
	if cfg.Server == nil {
		return nil, errors.New("node: config needs a Server")
	}
	if cfg.State != nil && cfg.Store == nil {
		return nil, errors.New("node: State needs a Store (commitments journal through the store checkpoint path)")
	}
	if cfg.Identity != nil && cfg.Identity.ID() != cfg.Server.ID() {
		return nil, fmt.Errorf("node: identity is server %d, core server is %d", cfg.Identity.ID(), cfg.Server.ID())
	}
	if cfg.DisseminateEvery <= 0 {
		cfg.DisseminateEvery = 50 * time.Millisecond
	}
	n := &Node{
		cfg:    cfg,
		in:     make(chan gossip.Message, 256),
		posted: make(chan func(), 4),
		wakes:  make(chan struct{}, 1),
		done:   make(chan struct{}),
		broker: NewIndicationBroker(DefaultRecentLabels),
	}
	n.broker.index = indexReplay // until endReplay, below
	srv := cfg.Server
	// Pulls go over CatchUp's wiring when there is one, otherwise to every
	// other roster member over the server's transport.
	n.via = syncsvc.FetchConfig{Transport: srv.Transport()}
	if c := cfg.CatchUp; c != nil {
		if c.Transport == nil || len(c.Peers) == 0 {
			return nil, errors.New("node: CatchUp needs a Transport and at least one peer")
		}
		n.via = *c
	} else {
		for _, id := range srv.Roster().IDs() {
			if id != srv.ID() {
				n.via.Peers = append(n.via.Peers, id)
			}
		}
	}
	if n.via.Roster == nil {
		n.via.Roster = srv.Roster()
	}
	if n.via.Timeout <= 0 {
		n.via.Timeout = 30 * time.Second
	}
	if cfg.Store != nil {
		n.follow.State = FollowIdle
	}
	// The broker observes before the replay below runs, so indications of
	// restored blocks land in its replay index: a gateway that claims it
	// before the node's first publication after New answers an await for a
	// label delivered before the crash immediately.
	if err := srv.AddIndicationObserver(n.broker.Publish); err != nil {
		return nil, fmt.Errorf("node: %w", err)
	}
	if st := cfg.Store; st != nil {
		// A pruned (or snapshot-installed) store stands on a base table:
		// seed the server with it before any block is replayed, so chains
		// — the own one too — resume above the horizon without their
		// pruned prefixes.
		if base := st.Head().Base; len(base) > 0 {
			if err := srv.SeedBase(base); err != nil {
				return nil, fmt.Errorf("node: seed pruned-history base: %w", err)
			}
		}
		if cfg.State != nil {
			// Rebuild the machine from the journaled checkpoint before the
			// Restore replay below fires indications for the slots above it.
			if err := n.restoreState(cfg.State, st); err != nil {
				return nil, err
			}
		}
		// The journal goes in ahead of the replay: no insertion bypasses
		// it, and the store ignores a block it holds. Convictions come back
		// with it: the head's bans hold from the first delivery on, and
		// an equivocation the block replay re-detects is already held by
		// the scorer instead of being relayed afresh on every restart. Its sink is
		// PersistSink, not a bare Append: own blocks must be durable before
		// gossip broadcasts them, or a power cut sets up a post-crash
		// self-equivocation (see the store package docs). And DeliverBatch
		// brackets its burst in one store batch, so 64 received blocks cost
		// one write syscall and one fsync decision instead of 64.
		if err := srv.SetJournal(st); err != nil {
			return nil, fmt.Errorf("node: %w", err)
		}
		began := time.Now()
		if err := srv.Restore(st.Blocks()); err != nil {
			return nil, fmt.Errorf("node: restore from store: %w", err)
		}
		n.recovery = RecoveryReport{Store: st.Report(), Took: time.Since(began)}
	}
	// Pulls, silence and the seal period count from here, not from the
	// clock's origin: a long replay above must not make the first turn
	// overdue.
	n.lastFollow = srv.Now()
	n.lastSeal, n.quietFrom = n.lastFollow, n.lastFollow
	r := srv.Roster()
	n.sched = newSchedule(r.N(), r.F(), cfg.DisseminateEvery, n.lastFollow, n.ownHeld() > 0)
	n.broker.endReplay()
	return n, nil
}

// CatchUpReport returns the first poll's outcome, FollowReport().First.
//
// Deprecated: read FollowReport. The method exists only because the frozen
// bench/layers.go reads its Blocks, and goes when bench/ drops that line.
func (n *Node) CatchUpReport() FirstPoll { return n.FollowReport().First }

// RecoveryReport returns what New replayed from the store (zeros without
// one) and the own chain's current position. Safe for concurrent use.
func (n *Node) RecoveryReport() RecoveryReport {
	rep := n.recovery
	rep.OwnHeld, rep.OwnSeen = n.ownHeld(), n.ownSeen.Load()
	return rep
}

// ownHeld is 1 + the highest own sequence number in the DAG: its own chain
// head, stand-ins included. Safe for concurrent use.
func (n *Node) ownHeld() uint64 {
	return n.cfg.Server.DAG().Head(n.cfg.Server.ID()).Next
}

// FollowReport returns the live follower's counters so far (zero value
// without Config.Store). Safe for concurrent use.
func (n *Node) FollowReport() FollowReport {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.follow
}

// Watermarks returns this node's own watermark vector, its DAG's chain heads
// (syncsvc.Vector) — the live source deployments hand to
// syncsvc.Server.Watermarks, so answering a poll that has nothing coming
// costs a few atomic loads and no turn of the node (Stream). Safe for
// concurrent use; transports call it from connection goroutines.
func (n *Node) Watermarks() []syncsvc.Watermark { return syncsvc.Vector(n.cfg.Server.DAG()) }

// StoreDiskSize reports the durable store's current on-disk size in
// bytes, false when the node runs without a store. Safe for concurrent
// use (it walks the directory; it does not touch the store's mutable
// state), so status endpoints may call it while the loop runs.
func (n *Node) StoreDiskSize() (int64, bool) {
	if n.cfg.Store == nil {
		return 0, false
	}
	size, err := n.cfg.Store.DiskSize()
	if err != nil {
		return 0, false
	}
	return size, true
}

// Start launches the loop goroutine, which from then on owns the server:
// the caller must not step turns itself any more. On a durable node the
// loop's first turn is the first poll (FollowReport.First). It is an error
// to start twice, or after Stop.
func (n *Node) Start() error {
	n.stepMu.Lock()
	defer n.stepMu.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return errors.New("node: already started or stopped")
	}
	n.started = true
	n.looping.Store(true)
	n.quietFrom = n.cfg.Server.Now() // a peer's block is due from now on, not from New
	if n.cfg.Store != nil {
		n.follow.First.Outcome, n.followPeer = FirstPending, 0 // the loop's first turn
	}
	ctx, cancel := context.WithCancel(context.Background())
	n.cancel = cancel
	n.wg.Add(1)
	go n.loop(ctx)
	if st := n.cfg.Store; st != nil {
		st.SetRuntime(n) // the loop owns the DAG now: Stream reads in its turns
	}
	return nil
}

// Stop drains and terminates the node. The order matters for a clean
// front door: first the indication broker closes (waking every await and
// streaming subscriber with a terminal signal), then the registered stop
// hooks run — the gateway's hook waits for its in-flight HTTP requests to
// finish — and only then is the loop cancelled and awaited. A slow client
// request thus completes against a live server and gets a real response,
// not a connection reset. A node that was never started has no loop to
// await: Stop then only makes it inert (late completions are dropped).
// Either way it first leaves its store: no sync server serves from it after.
// Idempotent.
func (n *Node) Stop() {
	n.stopOnce.Do(func() {
		if st := n.cfg.Store; st != nil {
			st.SetRuntime(nil)
		}
		n.broker.Close()
		n.mu.Lock()
		hooks := append([]func(){}, n.stopHooks...)
		if !n.started {
			n.started = true
			close(n.done)
		}
		n.mu.Unlock()
		for _, h := range hooks {
			h()
		}
	})
	n.mu.Lock()
	cancel := n.cancel
	n.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	n.wg.Wait()
}

// OnStop registers a hook Stop runs before tearing down the loop — the
// graceful-drain seam (package gateway registers its HTTP shutdown here).
// Hooks run in registration order, on the goroutine that called Stop.
// Registering after Stop has begun is a no-op.
func (n *Node) OnStop(hook func()) {
	if hook == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.stopHooks = append(n.stopHooks, hook)
}

// Indications returns the node's indication broker: the concurrency-safe
// subscription seam over the server's OnIndication stream. Never nil. Its
// replay index outlives New's replay window only if claimed
// (IndicationBroker.ClaimIndex), as a gateway does.
func (n *Node) Indications() *IndicationBroker { return n.broker }

// Deliver implements transport.Endpoint: on a started node it queues a
// network payload for the loop; on a node its owner steps it is the
// delivery turn (DeliverBurst), run right here, as post runs a completion.
// The payload is the node's from here on — a block's becomes that block's
// frame. Deliveries after Stop are discarded.
func (n *Node) Deliver(from types.ServerID, payload []byte) {
	msg := gossip.Message{From: from, Payload: payload}
	if !n.looping.Load() && n.deliverStepped(msg) {
		return
	}
	select {
	case n.in <- msg:
	case <-n.done:
	}
}

// deliverStepped runs msg's delivery turn — or drops msg after Stop — unless
// Start has handed the node to its loop, and reports whether it did.
func (n *Node) deliverStepped(msg gossip.Message) bool {
	n.stepMu.Lock()
	defer n.stepMu.Unlock()
	if n.looping.Load() {
		return false
	}
	select {
	case <-n.done:
	default:
		n.DeliverBurst([]gossip.Message{msg})
	}
	return true
}

// Submit admits a user request (shim interface request(ℓ, r)) to the
// server's mempool, synchronously — the pool is safe for concurrent use, so
// this needs no turn of the loop — and returns the admission verdict
// (mempool.ErrFull, mempool.ErrDuplicate, a validation error, or nil), which
// gateways surface to their clients. An admitted request wakes the loop,
// whose early turn (DisseminateEarly) seals it before the tick if the
// schedule says so.
func (n *Node) Submit(label types.Label, data []byte) error {
	if err := n.cfg.Server.Submit(label, data); err != nil {
		return err
	}
	n.wake()
	return nil
}

// Request is Submit with the verdict dropped: Algorithm 3's fire-and-forget
// signature.
func (n *Node) Request(label types.Label, data []byte) {
	_ = n.Submit(label, data)
}

// Err returns the first runtime error observed by a turn, combined with
// the server's own health.
func (n *Node) Err() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.firstErr != nil {
		return n.firstErr
	}
	return n.cfg.Server.Health()
}

func (n *Node) recordErr(err error) {
	if err == nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.firstErr == nil {
		n.firstErr = err
	}
}

// Server exposes the underlying shim (read-only access such as DAG() and
// Interpreter() is safe only from the server's owner: after Stop, between
// stepped turns, or from the indication callback).
func (n *Node) Server() *core.Server { return n.cfg.Server }

// loop is the goroutine shell: it waits — on the channels, the full-block
// wake, the ticker — and runs one turn per event. The ticker's is the
// period turn, Tick then Disseminate, the order the simulator steps too
// (cluster.ScheduleRounds). An early seal leaves the ticker alone: it keeps
// its period and phase.
func (n *Node) loop(ctx context.Context) {
	defer n.wg.Done()
	defer close(n.done)
	if n.cfg.Store != nil {
		// Clean shutdowns leave no unsynced tail, whatever the policy.
		defer func() { n.recordErr(n.cfg.Store.Sync()) }()
	}
	period := time.NewTicker(n.cfg.DisseminateEvery)
	defer period.Stop()

	n.FollowPoll() // the first poll, on a durable node (Start)
	for {
		select {
		case <-ctx.Done():
			return
		case msg := <-n.in:
			n.DeliverBurst(n.drainBurst(msg))
		case <-period.C:
			n.Tick()
			n.Disseminate()
		case <-n.wakes:
			n.DisseminateEarly()
		case turn := <-n.posted:
			turn()
		}
	}
}

// ingestBurst bounds how many queued deliveries one loop iteration
// drains into a single DeliverBurst. It caps the latency the period turn
// can accrue behind a network burst while still giving the batch verifier
// enough signatures to amortize across cores.
const ingestBurst = 64

// drainBurst gathers the first queued delivery plus everything else
// already waiting (up to ingestBurst), so a backlog pays one parallel
// signature-verification pass instead of one serial verify per message.
// With nothing else queued the burst is that one message.
func (n *Node) drainBurst(first gossip.Message) []gossip.Message {
	batch := append(make([]gossip.Message, 0, ingestBurst), first)
	for len(batch) < ingestBurst {
		select {
		case msg := <-n.in:
			batch = append(batch, msg)
		default:
			return batch
		}
	}
	return batch
}

// post hands an async completion (a settled delta pull) or a served
// stream's read (Stream) to the server's owner as a turn of its own, or
// drops it if the node has stopped since. A stepped node's transport calls
// back on its owner's goroutine, so the turn runs right there; a started
// node's loop is the owner, and receives it on posted.
func (n *Node) post(turn func()) {
	select {
	case <-n.done:
		return
	default:
	}
	if !n.looping.Load() {
		turn()
		return
	}
	select {
	case n.posted <- turn:
	case <-n.done:
	}
}
