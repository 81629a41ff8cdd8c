// Package cluster runs complete shim(P) clusters on the deterministic
// network simulator: n correct slots, each a production runtime — a
// node.Node around its own core.Server, DAG, gossip and interpreter, built
// by the step a deployed node is built by (deploy.Build) — exchanging
// blocks over simnet with configurable latency, jitter, and loss.
//
// The cluster is the simulator's shell around that runtime, and nothing
// more: it never starts a node's goroutine; it steps the node's turns
// (Tick, Disseminate, DisseminateIfFull, DeliverBurst) from simnet events
// on the virtual clock, so a run is a deterministic function of its seed.
// Follow polls, catch-up pulls, the seal/prune cycle, store recovery, evidence
// replay and gateway wiring are the node's own code, the same a deployed
// node runs.
//
// It is the shared harness behind the integration tests of Theorem 5.1,
// the root benchmarks, the experiments CLI, and the examples. Byzantine
// servers are modeled by leaving their slot without a correct server and
// driving hand-crafted (but validly signed) blocks through the test's own
// logic via Seal and Send.
package cluster

import (
	"fmt"
	"path/filepath"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/deploy"
	"blockdag/internal/gateway"
	"blockdag/internal/gossip"
	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocol"
	"blockdag/internal/roster"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// Indication is one indication observed at a correct server.
type Indication struct {
	Server types.ServerID
	Label  types.Label
	Value  []byte
}

// Options configures a cluster.
type Options struct {
	// N is the number of servers (required, ≥ 1).
	N int
	// Protocol is the embedded deterministic BFT protocol P (required).
	Protocol protocol.Protocol

	// Byzantine lists server indices with no correct server attached:
	// their slots exist in the roster, and tests drive them manually.
	Byzantine []int

	// Fixture supplies the cluster's identities as a roster fixture —
	// the file-format code path a production deployment loads from disk.
	// Nil defaults to roster.Dev(N): the deterministic development
	// identities, still routed through the roster codec, so simulation
	// and deployment can never diverge. Must have N members when set.
	Fixture *roster.Fixture

	// Seed fixes the simulation (default 1).
	Seed int64
	// Latency and Jitter configure the link delay model (defaults
	// 10ms ± 5ms).
	Latency, Jitter time.Duration
	// Drop is the unicast loss probability (default 0).
	Drop float64
	// Interval is the dissemination period (default 50ms).
	Interval time.Duration

	// MaxBatch caps requests per block (0 = gossip default).
	MaxBatch int
	// MempoolCapacity is the capacity of every correct server's ingestion
	// pool (core.Config.Mempool; 0 = the pool's default): submissions
	// deduplicate, validate, and hit backpressure exactly as in
	// production. Recovered servers get a fresh pool (a mempool is
	// volatile state; queued requests do not survive a crash).
	MempoolCapacity int
	// GatewayPerSlot binds a client gateway (gateway.Config{Node: …}) to
	// every correct slot on an ephemeral loopback port, so deterministic
	// tests drive the real HTTP front door against simulated consensus.
	// The pool is the concurrency-safe admission path into the
	// event-loop-driven server; the gateway's HTTP goroutines touch no
	// other server state. Indications reach the gateway through the slot
	// node's broker, published from the simulator's event loop. Crashing a
	// slot closes its gateway; recovery opens a fresh one on a new port.
	GatewayPerSlot bool

	// LoadPerRound, if > 0, submits that many synthetic client requests
	// at every correct server before each dissemination round — a
	// deterministic stand-in for client traffic, labeled
	// "load/s<slot>/<seq>" with the sequence number as payload so every
	// request is unique and runs reproduce exactly.
	LoadPerRound int
	// SigCounters, if non-nil, tallies every signature operation of
	// every server (experiment E10).
	SigCounters *crypto.Counters
	// StoreDir, if non-empty, gives every correct server a durable block
	// store under StoreDir/s<i>, handed to node.New (node.Config.Store):
	// each inserted block is journaled before interpretation, own blocks
	// before dissemination, exactly as in production, and servers with
	// pre-existing store contents restore from them on construction.
	// Stores otherwise run with SyncNever (the simulation models power
	// cuts by truncation, not by fsync) and the simulated clock. A durable
	// slot also serves the sync channel and runs the live follower, which
	// pulls when gossip shows lag (node.Node.Tick): polls, streams and
	// absorptions all ride the simulator's event loop, so runs stay
	// deterministic.
	StoreDir string
	// StoreSegmentSize overrides the WAL rotation threshold
	// (0 = store default). Tests use small segments to exercise
	// rotation and a replay across segments.
	StoreSegmentSize int64
}

// Cluster is a running simulation.
type Cluster struct {
	Net *simnet.Network
	// Fixture is the roster fixture the cluster's identities came from.
	Fixture *roster.Fixture
	Roster  *crypto.Roster
	Signers []*crypto.Signer
	// Nodes holds each correct slot's runtime, built by node.New and
	// never started: the cluster steps it. Byzantine and crashed slots
	// are nil.
	Nodes []*node.Node
	// Servers holds Nodes[i].Server() for every live correct slot (nil
	// otherwise): the state machine most tests talk to. A slot's mempool,
	// evidence pool and scorer are the server's (Mempool, Evidence,
	// Scores).
	Servers []*core.Server
	// Metrics holds each correct server's counters (nil for byzantine
	// slots).
	Metrics []*metrics.Metrics
	// Stores holds each correct server's durable block store when
	// Options.StoreDir was set (nil otherwise, and for byzantine and
	// crashed slots).
	Stores []*store.Store

	opts     Options
	interval time.Duration
	inds     [][]Indication
	gateways []*gateway.Gateway
	// loadSeq numbers each slot's synthetic requests across rounds and
	// recoveries, keeping LoadPerRound traffic unique and reproducible.
	loadSeq []uint64
}

// New builds a cluster per the options.
func New(opts Options) (*Cluster, error) {
	if opts.N < 1 {
		return nil, fmt.Errorf("cluster: need at least one server, got %d", opts.N)
	}
	if opts.Protocol == nil {
		return nil, fmt.Errorf("cluster: need a protocol")
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Latency == 0 {
		opts.Latency = 10 * time.Millisecond
	}
	if opts.Jitter == 0 {
		opts.Jitter = 5 * time.Millisecond
	}
	if opts.Interval == 0 {
		opts.Interval = 50 * time.Millisecond
	}

	fixture := opts.Fixture
	if fixture == nil {
		var err error
		if fixture, err = roster.Dev(opts.N); err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
	}
	if fixture.File.N() != opts.N {
		return nil, fmt.Errorf("cluster: fixture has %d members, options want %d", fixture.File.N(), opts.N)
	}
	cryptoRoster, signers, err := fixture.Signers(opts.SigCounters)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	net := simnet.New(
		simnet.WithSeed(opts.Seed),
		simnet.WithLatency(opts.Latency, opts.Jitter),
		simnet.WithDrop(opts.Drop),
	)
	// Every slot (byzantine ones included — tests drive their traffic with
	// valid identities) authenticates, so cluster runs exercise the same
	// Authenticator seam tcpnet enforces in production.
	auths, err := fixture.Auths()
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	for i, a := range auths {
		net.RegisterAuth(types.ServerID(i), a)
	}
	byz := make(map[int]bool, len(opts.Byzantine))
	for _, i := range opts.Byzantine {
		byz[i] = true
	}

	c := &Cluster{
		Net:     net,
		Fixture: fixture,
		Roster:  cryptoRoster,
		Signers: signers,
		Nodes:   make([]*node.Node, opts.N),
		Servers: make([]*core.Server, opts.N),
		Metrics: make([]*metrics.Metrics, opts.N),
		Stores:  make([]*store.Store, opts.N),

		opts:     opts,
		interval: opts.Interval,
		inds:     make([][]Indication, opts.N),
		gateways: make([]*gateway.Gateway, opts.N),
		loadSeq:  make([]uint64, opts.N),
	}
	for i := 0; i < opts.N; i++ {
		if byz[i] {
			continue
		}
		st, err := c.openStore(i)
		if err != nil {
			return nil, err
		}
		if err := c.buildSlot(i, opts.Protocol, st, nil); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildSlot brings one correct slot up — at New and at every recovery,
// the one construction path: a core.Config per the options over simnet's
// transport and clock, handed to deploy.Build, the step a deployed node's
// Boot runs. There node.New installs the persistence sinks, replays st
// (pruned-history base, evidence sidecar, blocks) and sets up the
// follower and indication broker. stored is the
// storeless recovery's log: blocks the caller held, restored once the
// runtime's observers are in place. Accountability state and the mempool
// are volatile — fresh per build, as after a real restart; bans come back
// from the sidecar.
func (c *Cluster) buildSlot(slot int, proto protocol.Protocol, st *store.Store, stored []*block.Block) error {
	id := types.ServerID(slot)
	m := &metrics.Metrics{}
	cfg := core.Config{
		Roster:    c.Roster,
		Signer:    c.Signers[slot],
		Protocol:  proto,
		Transport: c.Net.Transport(id),
		Clock:     c.Net.Now,
		Metrics:   m,
		MaxBatch:  c.opts.MaxBatch,
		Mempool:   mempool.New(mempool.Options{Capacity: c.opts.MempoolCapacity}),
		OnIndication: func(label types.Label, value []byte) {
			c.inds[slot] = append(c.inds[slot], Indication{Server: id, Label: label, Value: value})
		},
	}
	fail := func(err error) error {
		if st != nil {
			st.Abandon()
		}
		return fmt.Errorf("cluster: server %d: %w", slot, err)
	}
	nd, err := deploy.Build(cfg, node.Config{Store: st})
	if err != nil {
		return fail(err)
	}
	srv := nd.Server()
	var gw *gateway.Gateway
	if c.opts.GatewayPerSlot {
		// The gateway's HTTP goroutines reach the slot only through
		// concurrency-safe values: the pool, the broker, the counters. It
		// claims the broker's replay index before the restore below
		// publishes, as deploy.Boot's gateway does before the node starts.
		if gw, err = gateway.Listen("127.0.0.1:0", gateway.Config{Node: nd, Registry: deploy.Registry(srv, nil, nil, nil)}); err != nil {
			return fail(fmt.Errorf("gateway: %w", err))
		}
	}
	if len(stored) > 0 {
		if err := srv.Restore(stored); err != nil {
			nd.Stop() // and with it the gateway
			return fail(err)
		}
	}
	c.gateways[slot] = gw
	c.Net.RegisterScorer(id, srv.Scores())
	c.register(slot, nd, st)
	c.Nodes[slot], c.Servers[slot], c.Metrics[slot], c.Stores[slot] = nd, srv, m, st
	return nil
}

// GatewayAddr returns one slot's gateway address (host:port), "" when the
// slot has none (no GatewayPerSlot, byzantine, or crashed).
func (c *Cluster) GatewayAddr(slot int) string {
	if c.gateways[slot] == nil {
		return ""
	}
	return c.gateways[slot].Addr()
}

// Close ends the simulation's client plane: every live slot's node is
// stopped, which drains its gateway and wakes its broker's subscribers
// with the terminal signal. The simulation itself holds no other
// external resources (stores are caller-closed).
func (c *Cluster) Close() {
	for i, nd := range c.Nodes {
		if nd != nil {
			nd.Stop()
			c.gateways[i] = nil
		}
	}
}

// inline is a stepped slot's gossip endpoint: every network delivery is
// one delivery turn of the slot's runtime, run on the event loop.
type inline struct{ nd *node.Node }

func (e inline) Deliver(from types.ServerID, payload []byte) {
	e.nd.DeliverBurst([]gossip.Message{{From: from, Payload: payload}})
}

// register attaches one slot's consumers to the network: the runtime on
// the gossip channel and — when the slot is durable — a catch-up server on
// the sync channel, so any peer can bulk-sync or follow from this slot. A
// request that lacks nothing is answered from the node's chain heads; any
// other streams from the node's DAG in the node's turns, inline on the event
// loop. The catch-up server runs under the syncsvc default in-flight cap.
func (c *Cluster) register(slot int, nd *node.Node, st *store.Store) {
	id := types.ServerID(slot)
	c.Net.Register(id, transport.ChanGossip, inline{nd})
	if st == nil {
		return
	}
	// Built here, not by deploy: simnet takes a handler once the node
	// exists — nothing to late-bind.
	st.SetRuntime(nd) // as Start would: the event loop owns the stepped node
	c.Net.RegisterHandler(id, transport.ChanSync,
		&syncsvc.Server{Store: st, Scores: nd.Server().Scores(), Watermarks: nd.Watermarks})
}

// openStore opens the durable block store for one slot if Options.StoreDir
// is configured (nil store otherwise).
func (c *Cluster) openStore(slot int) (*store.Store, error) {
	if c.opts.StoreDir == "" {
		return nil, nil
	}
	st, err := store.Open(filepath.Join(c.opts.StoreDir, fmt.Sprintf("s%d", slot)), store.Options{
		Roster:      c.Roster,
		SegmentSize: c.opts.StoreSegmentSize,
		Sync:        store.SyncNever,
		Clock:       c.Net.Now,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: store for server %d: %w", slot, err)
	}
	return st, nil
}

// Request submits a user request at the given correct server.
func (c *Cluster) Request(server int, label types.Label, data []byte) {
	c.Servers[server].Request(label, data)
}

// Submit is the backpressure-aware form of Request: it returns the
// mempool's admission verdict (mempool.ErrFull, mempool.ErrDuplicate, a
// validation error).
func (c *Cluster) Submit(server int, label types.Label, data []byte) error {
	return c.Servers[server].Submit(label, data)
}

// MempoolStats returns one slot's pool counters; the zero value when the
// slot is down.
func (c *Cluster) MempoolStats(slot int) mempool.Stats {
	if c.Servers[slot] == nil {
		return mempool.Stats{}
	}
	return c.Servers[slot].Mempool().Stats()
}

// injectLoad submits one round's synthetic client requests at a slot:
// Options.LoadPerRound unique, deterministically labeled requests, the
// simulator's stand-in for client traffic.
func (c *Cluster) injectLoad(slot int) {
	srv := c.Servers[slot]
	if srv == nil || c.opts.LoadPerRound <= 0 {
		return
	}
	for k := 0; k < c.opts.LoadPerRound; k++ {
		seq := c.loadSeq[slot]
		c.loadSeq[slot]++
		label := types.Label(fmt.Sprintf("load/s%d/%d", slot, seq))
		// Admission can fail under backpressure; synthetic load is
		// best-effort by design, and the pool counts the overflow.
		_ = srv.Submit(label, []byte(fmt.Sprintf("r%d", seq)))
	}
}

// RunRounds schedules `rounds` dissemination rounds (ScheduleRounds), then
// runs the network to quiescence.
func (c *Cluster) RunRounds(rounds int) error {
	c.ScheduleRounds(rounds)
	c.Net.Run()
	return c.Health()
}

// ScheduleRounds schedules `rounds` dissemination rounds, one interval
// apart, without running them: every correct slot takes its housekeeping
// (the follower's included), block and full-block turns once per round,
// staggered to break symmetry. A caller that runs the network itself can
// stop it mid-way (simnet.Network.RunUntil), the moment a condition holds.
func (c *Cluster) ScheduleRounds(rounds int) {
	for r := 0; r < rounds; r++ {
		at := time.Duration(r) * c.interval
		for i, nd := range c.Nodes {
			if nd == nil {
				continue
			}
			stagger := time.Duration(i) * time.Millisecond
			c.Net.After(at+stagger, func() {
				c.injectLoad(i)
				nd.Tick()
				nd.Disseminate()
				nd.DisseminateIfFull()
			})
		}
	}
}

// RunUntil runs dissemination rounds until cond holds or maxRounds pass,
// reporting whether cond was met.
func (c *Cluster) RunUntil(maxRounds int, cond func() bool) (bool, error) {
	for r := 0; r < maxRounds; r++ {
		if cond() {
			return true, nil
		}
		if err := c.RunRounds(1); err != nil {
			return false, err
		}
	}
	return cond(), nil
}

// FollowStats returns one slot's live-follower counters (zero for a slot
// that is down).
func (c *Cluster) FollowStats(slot int) node.FollowReport {
	if c.Nodes[slot] == nil {
		return node.FollowReport{}
	}
	return c.Nodes[slot].FollowReport()
}

// FollowOnce schedules one immediate follow poll at the given slot,
// whatever gossip's evidence says (the slot must be durable; an outstanding
// poll still wins). Tests use it to converge a healed follower at a quiet
// moment — with nothing else scheduled, running the network to quiescence
// isolates exactly the follow path's traffic.
func (c *Cluster) FollowOnce(slot int) {
	if nd := c.Nodes[slot]; nd != nil {
		c.Net.After(0, nd.FollowPoll)
	}
}

// Health surfaces the first runtime or internal error of any correct
// slot.
func (c *Cluster) Health() error {
	for i, nd := range c.Nodes {
		if nd == nil {
			continue
		}
		if err := nd.Err(); err != nil {
			return fmt.Errorf("cluster: server %d: %w", i, err)
		}
	}
	return nil
}

// Indications returns the indications observed at one server so far.
func (c *Cluster) Indications(server int) []Indication {
	return append([]Indication(nil), c.inds[server]...)
}

// CorrectServers returns the indices of the non-byzantine servers.
func (c *Cluster) CorrectServers() []int {
	var out []int
	for i, srv := range c.Servers {
		if srv != nil {
			out = append(out, i)
		}
	}
	return out
}

// Converged reports whether all correct servers hold identical DAGs — the
// joint block DAG of Lemma 3.7 at quiescence.
func (c *Cluster) Converged() bool {
	correct := c.CorrectServers()
	if len(correct) == 0 {
		return true
	}
	base := c.Servers[correct[0]].DAG()
	for _, i := range correct[1:] {
		d := c.Servers[i].DAG()
		if d.Len() != base.Len() || !base.Leq(d) || !d.Leq(base) {
			return false
		}
	}
	return true
}

// Crash simulates a full stop of the given server: its runtime is stopped
// (it takes no more turns, completions still in flight are dropped, its
// gateway closes and in-flight clients get the broker's terminal signal)
// and it is deregistered from the network, so future traffic to it is
// dropped and any catch-up stream it was serving aborts with
// transport.ErrStreamLost at the client. A store attached to the slot is
// abandoned (store.Store.Abandon) without sealing or fsyncing the live
// segment — the power-cut model — releasing its file handle so
// crash/recover loops do not leak descriptors; reopen the directory via
// RecoverServerFromStore (or store.Open for offline work). Mempool,
// evidence pool and scorer die with the server: recovery builds fresh
// ones and re-seeds the bans from the store's evidence sidecar, which is
// the whole point of it. Recover the slot with RecoverServer,
// RecoverServerFromStore, or — to exercise the bulk sync path —
// RecoverServerViaSync.
func (c *Cluster) Crash(slot int) {
	if nd := c.Nodes[slot]; nd != nil {
		nd.Stop()
	}
	if st := c.Stores[slot]; st != nil {
		st.Abandon()
	}
	c.Nodes[slot], c.Servers[slot], c.Stores[slot], c.gateways[slot] = nil, nil, nil, nil
	c.Net.RegisterScorer(types.ServerID(slot), nil)
	c.Net.Deregister(types.ServerID(slot))
}

// BannedEverywhere reports whether every correct server's scorer has the
// given server in the terminal banned state.
func (c *Cluster) BannedEverywhere(id types.ServerID) bool {
	any := false
	for i, srv := range c.Servers {
		if srv == nil || types.ServerID(i) == id {
			continue
		}
		if !srv.Scores().Banned(id) {
			return false
		}
		any = true
	}
	return any
}

// RecoverServer restarts a crashed slot from persisted blocks: a fresh
// server and runtime are built, Restore absorbs the blocks into the live
// DAG (validating and interpreting them, gossip resuming the old chain as
// they go in), and the endpoint is re-registered. Replayed indications are
// appended to the slot's indication record, so callers observe
// at-least-once delivery across the crash.
//
// On a cluster with Options.StoreDir it refuses: rebuilding the slot
// without its store would journal nothing from then on, so a second crash
// would restore a stale prefix and re-use published sequence numbers — the
// self-equivocation the store exists to prevent. Use
// RecoverServerFromStore there.
func (c *Cluster) RecoverServer(slot int, proto protocol.Protocol, stored []*block.Block) error {
	if c.opts.StoreDir != "" {
		return fmt.Errorf("cluster: recover server %d: cluster has durable stores, use RecoverServerFromStore", slot)
	}
	return c.buildSlot(slot, proto, nil, stored)
}

// RecoverServerFromStore restarts a crashed slot from its on-disk store:
// the store directory under Options.StoreDir is reopened (reading the
// WAL, truncating any torn tail) and node.New replays it into a fresh
// server's live DAG and resumes journaling on the same store — the full
// production crash-recovery path, in simulation.
func (c *Cluster) RecoverServerFromStore(slot int, proto protocol.Protocol) error {
	if c.opts.StoreDir == "" {
		return fmt.Errorf("cluster: recover server %d from store: cluster has no StoreDir", slot)
	}
	st, err := c.openStore(slot)
	if err != nil {
		return err
	}
	return c.buildSlot(slot, proto, st, nil)
}

// RecoverServerViaSync restarts a crashed slot through bulk catch-up: the
// slot is rebuilt over its store (possibly empty — the disk-loss model)
// like any other recovery and then takes the runtime's own pull
// (node.Node.PullFrom) from the given peer as a stepped turn, the network
// run until the stream has settled: what a deployed node's startup
// catch-up and live follower run, deterministically.
//
// The serving peer is untrusted: a tampered or ill-ordered stream ends
// with that rejection as the returned error. Production's rule holds —
// the genuine prefix before the bad block stays absorbed and journaled,
// nothing after it is, and the slot stays up — so the caller pulls again
// from another peer (on a live slot this only pulls) or leaves the rest
// to FWD.
func (c *Cluster) RecoverServerViaSync(slot int, proto protocol.Protocol, from int) error {
	if c.Nodes[slot] == nil {
		if err := c.RecoverServerFromStore(slot, proto); err != nil {
			return err
		}
	}
	settled := false
	var pullErr error
	abandon := c.Nodes[slot].PullFrom(types.ServerID(from), func(_ int, err error) {
		settled, pullErr = true, err
	})
	if !c.Net.RunUntil(func() bool { return settled }) {
		abandon()
	}
	if pullErr != nil {
		return fmt.Errorf("cluster: recover server %d via sync: %w", slot, pullErr)
	}
	return nil
}

// Seal builds and signs a block on behalf of the given server — the
// building brick for byzantine behaviours driven by tests.
func (c *Cluster) Seal(server int, seq uint64, preds []block.Ref, reqs ...block.Request) (*block.Block, error) {
	b := block.New(types.ServerID(server), seq, preds, reqs)
	if err := b.Seal(c.Signers[server]); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return b, nil
}

// Send delivers a block from one server to specific receivers only —
// selective dissemination, the byzantine behaviour gossip tolerates.
func (c *Cluster) Send(from int, b *block.Block, to ...int) {
	payload := gossip.EncodeBlockMsg(b)
	tr := c.Net.Transport(types.ServerID(from))
	for _, dst := range to {
		tr.Send(types.ServerID(dst), transport.ChanGossip, payload)
	}
}
