// Package cluster runs complete shim(P) clusters on the deterministic
// network simulator: n core.Servers, each with its own DAG, gossip, and
// interpreter, exchanging blocks over simnet with configurable latency,
// jitter, and loss.
//
// It is the shared harness behind the integration tests of Theorem 5.1,
// every benchmark in EXPERIMENTS.md, the experiments CLI, and the
// examples. Byzantine servers are modeled by leaving their slot without a
// correct server and driving hand-crafted (but validly signed) blocks
// through the test's own logic via Seal and Send.
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/evidence"
	"blockdag/internal/gateway"
	"blockdag/internal/gossip"
	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/peerscore"
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
	// DisableAuth skips registering each server's transport
	// authenticator on the simulated network. By default every slot
	// (byzantine ones included — tests drive their traffic with valid
	// identities) authenticates, so cluster runs exercise the same
	// Authenticator seam tcpnet enforces in production.
	DisableAuth bool

	// SyncEvery/SyncBurst enable the catch-up server's per-peer token
	// bucket on every durable slot (see syncsvc.Server.Every/Burst);
	// zero leaves rate limiting off. The per-peer in-flight cap is
	// always on at the syncsvc default.
	SyncEvery time.Duration
	SyncBurst int

	// FollowEvery enables the live-follower loop on every correct slot:
	// each server periodically (per the simulated clock) sends a
	// watermark-exchange query to a rotating peer on the sync channel
	// and, when the peer's vector advertises blocks the local DAG lacks,
	// pulls exactly the missing suffix through the validated delta
	// stream — converging a laggard without waiting for per-block FWD
	// round trips. Polls, streams, and absorptions all ride the
	// simulator's event loop, so runs stay deterministic. With
	// FollowEvery set, every correct slot also serves the sync channel
	// (from its store when durable, else straight from its DAG), so
	// non-durable clusters can follow too. 0 disables.
	FollowEvery time.Duration

	// Accountability equips every correct slot with the evidence and
	// quarantine machinery: an evidence pool and peer scorer wired into
	// gossip (equivocation proofs are built, gossiped, and relayed; blocks
	// built by banned servers are refused unless a chain needs them), the
	// simulated network (links to and from banned peers are torn down),
	// the sync service (throttle refusals feed the scorer), and — on
	// durable clusters — the store (proofs persist in the evidence
	// sidecar, and recovery re-seeds pool and bans from disk). Off by
	// default: tests that deliberately drive equivocations to observe
	// paper semantics see zero behavior change.
	Accountability bool

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
	// MempoolCapacity, if > 0, gives every correct server a real
	// ingestion pool (core.Config.Mempool) with that capacity instead of
	// the plain rqsts FIFO: submissions deduplicate, validate, and hit
	// backpressure exactly as in production. Recovered servers get a
	// fresh pool (a mempool is volatile state; queued requests do not
	// survive a crash).
	MempoolCapacity int
	// GatewayPerSlot binds a client gateway (package gateway) to every
	// correct slot on an ephemeral loopback port, so deterministic tests
	// drive the real HTTP front door against simulated consensus. Requires
	// MempoolCapacity > 0: the pool is the only concurrency-safe admission
	// path into an event-loop-driven server, and the gateway's HTTP
	// goroutines must not touch server state directly. Indications reach
	// the gateways through per-slot brokers (Brokers), published from the
	// simulator's event loop. Crashing a slot closes its gateway; recovery
	// opens a fresh one on a new port.
	GatewayPerSlot bool

	// LoadPerRound, if > 0, submits that many synthetic client requests
	// at every correct server before each dissemination round — a
	// deterministic stand-in for client traffic, labeled
	// "load/s<slot>/<seq>" with the sequence number as payload so every
	// request is unique and runs reproduce exactly. Works with or
	// without a mempool.
	LoadPerRound int
	// VerifyWorkers sets the batched signature-verification parallelism
	// of every server (core.Config.VerifyWorkers): 0 = GOMAXPROCS,
	// 1 = serial. Verdicts are worker-count independent, so simulation
	// determinism is unaffected.
	VerifyWorkers int
	// SigCounters, if non-nil, tallies every signature operation of
	// every server (experiment E10).
	SigCounters *crypto.Counters
	// CompressReferences enables the Section 7 implicit-inclusion
	// extension on every server (experiment E16 ablation).
	CompressReferences bool

	// StoreDir, if non-empty, gives every correct server a durable block
	// store under StoreDir/s<i>: each inserted block is journaled before
	// interpretation (through store.Store.PersistSink, so own blocks are
	// synced before dissemination exactly as in production), and servers
	// with pre-existing store contents restore from them on construction.
	// Stores otherwise run with SyncNever (the simulation models power
	// cuts by truncation, not by fsync) and the simulated clock.
	StoreDir string
	// StoreSegmentSize overrides the WAL rotation threshold
	// (0 = store default). Tests use small segments to exercise
	// rotation and compaction.
	StoreSegmentSize int64
	// CheckpointEverySegments, with StoreDir set, applies the automatic
	// checkpoint policy after every dissemination round: a server whose
	// WAL has at least this many segments snapshots and compacts its
	// store — mirroring node.Config.CheckpointEverySegments on the
	// simulator, so catch-up servers have a fresh snapshot to stream.
	// 0 disables.
	CheckpointEverySegments int
}

// Cluster is a running simulation.
type Cluster struct {
	Net *simnet.Network
	// Fixture is the roster fixture the cluster's identities came from.
	Fixture *roster.Fixture
	Roster  *crypto.Roster
	Signers []*crypto.Signer
	// Servers holds the correct servers; byzantine slots are nil.
	Servers []*core.Server
	// Metrics holds each correct server's counters (nil for byzantine
	// slots).
	Metrics []*metrics.Metrics
	// Stores holds each correct server's durable block store when
	// Options.StoreDir was set (nil otherwise, and for byzantine and
	// crashed slots).
	Stores []*store.Store
	// Pools holds each correct server's ingestion pool when
	// Options.MempoolCapacity was set (nil otherwise, and for byzantine
	// and crashed slots until recovery).
	Pools []*mempool.Pool
	// EvidencePools and Scorers hold each correct server's accountability
	// state when Options.Accountability was set (nil otherwise, and for
	// byzantine and crashed slots until recovery).
	EvidencePools []*evidence.Pool
	Scorers       []*peerscore.Scorer
	// Gateways and Brokers hold each correct slot's client gateway and the
	// indication broker feeding it when Options.GatewayPerSlot was set
	// (nil otherwise, and for byzantine and crashed slots until recovery).
	Gateways []*gateway.Gateway
	Brokers  []*node.IndicationBroker

	opts     Options
	interval time.Duration
	inds     [][]Indication
	follow   []followState
	// loadSeq numbers each slot's synthetic requests across rounds and
	// recoveries, keeping LoadPerRound traffic unique and reproducible.
	loadSeq []uint64
}

// followState is one slot's live-follower bookkeeping.
type followState struct {
	// lastPoll is the virtual time of the last poll; the zero value
	// means never polled, so the first poll fires once FollowEvery of
	// virtual time has elapsed from the simulation's start.
	lastPoll time.Duration
	nextPeer int  // rotation cursor over the other slots
	inFlight bool // a poll (query or delta) is outstanding
	stats    FollowStats
}

// FollowStats counts one slot's live-follower activity.
type FollowStats struct {
	// Polls is the number of watermark-exchange queries issued.
	Polls int
	// Deltas is the number of delta pulls opened (peer was ahead).
	Deltas int
	// Blocks is the number of validated blocks absorbed via pulls.
	Blocks int
	// Throttled counts polls refused by a peer's admission policy.
	Throttled int
	// Errors counts polls and pulls that failed for any other reason
	// (unreachable peer, no handler, validation rejection, ...).
	Errors int
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
	if opts.GatewayPerSlot && opts.MempoolCapacity <= 0 {
		return nil, fmt.Errorf("cluster: GatewayPerSlot needs MempoolCapacity > 0 (the pool is the gateway's concurrency-safe admission path)")
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
	if !opts.DisableAuth {
		auths, err := fixture.Auths()
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		for i, a := range auths {
			net.RegisterAuth(types.ServerID(i), a)
		}
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
		Servers: make([]*core.Server, opts.N),
		Metrics: make([]*metrics.Metrics, opts.N),
		Stores:  make([]*store.Store, opts.N),
		Pools:   make([]*mempool.Pool, opts.N),

		EvidencePools: make([]*evidence.Pool, opts.N),
		Scorers:       make([]*peerscore.Scorer, opts.N),
		Gateways:      make([]*gateway.Gateway, opts.N),
		Brokers:       make([]*node.IndicationBroker, opts.N),

		opts:     opts,
		interval: opts.Interval,
		inds:     make([][]Indication, opts.N),
		follow:   make([]followState, opts.N),
		loadSeq:  make([]uint64, opts.N),
	}
	for i := 0; i < opts.N; i++ {
		if byz[i] {
			continue
		}
		id := types.ServerID(i)
		m := &metrics.Metrics{}
		st, err := c.openStore(i)
		if err != nil {
			return nil, err
		}
		broker := c.newBroker(i)
		cfg := core.Config{
			Roster:        cryptoRoster,
			Signer:        signers[i],
			Protocol:      opts.Protocol,
			Transport:     net.Transport(id),
			Clock:         net.Now,
			Metrics:       m,
			MaxBatch:      opts.MaxBatch,
			VerifyWorkers: opts.VerifyWorkers,
			Mempool:       c.newPool(i),
			OnIndication: func(label types.Label, value []byte) {
				c.inds[i] = append(c.inds[i], Indication{
					Server: id, Label: label, Value: value,
				})
				broker.Publish(label, value)
			},
			CompressReferences: opts.CompressReferences,
		}
		if st != nil {
			cfg.OnPersist = st.PersistSink(id)
		}
		c.wireAccountability(i, &cfg, st)
		srv, err := core.NewServer(cfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: server %d: %w", i, err)
		}
		if st != nil {
			// A pruned store stands on a base table: seed it before the
			// replay so chains resume above the horizon.
			if base := st.Base(); len(base) > 0 {
				if err := srv.SeedBase(base); err != nil {
					return nil, fmt.Errorf("cluster: server %d: %w", i, err)
				}
			}
			if err := srv.Restore(st.Blocks()); err != nil {
				return nil, fmt.Errorf("cluster: server %d: %w", i, err)
			}
			srv.SeedEvidence(st.Evidence())
		}
		c.register(i, srv, st)
		c.Servers[i] = srv
		c.Metrics[i] = m
		c.Stores[i] = st
		if err := c.openGateway(i); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// newBroker builds (and records) one slot's indication broker when
// Options.GatewayPerSlot asks for one; nil otherwise (a nil broker's
// Publish is a no-op, so indication closures call it unconditionally).
func (c *Cluster) newBroker(slot int) *node.IndicationBroker {
	if !c.opts.GatewayPerSlot {
		return nil
	}
	c.Brokers[slot] = node.NewIndicationBroker(0)
	return c.Brokers[slot]
}

// openGateway binds one slot's client gateway on an ephemeral loopback
// port. Everything the gateway's HTTP goroutines touch is captured here as
// concurrency-safe values (pool, metrics, scorer, broker) — never the
// cluster's slices, which the test goroutine mutates on crash/recovery.
func (c *Cluster) openGateway(slot int) error {
	if !c.opts.GatewayPerSlot {
		return nil
	}
	pool := c.Pools[slot]
	m := c.Metrics[slot]
	sc := c.Scorers[slot]
	reg := gateway.NewRegistry()
	reg.Register(gateway.CollectMetrics(m))
	reg.Register(gateway.CollectMempool(pool))
	reg.Register(gateway.CollectPeerScore(sc))
	gw, err := gateway.Listen("127.0.0.1:0", gateway.Config{
		Submit:      pool.Submit,
		Indications: c.Brokers[slot],
		Registry:    reg,
		Status: func() gateway.Status {
			stats := pool.Stats()
			snap := m.Snapshot()
			return gateway.Status{
				Server:   slot,
				Healthy:  true,
				Mempool:  &stats,
				Counters: &snap,
			}
		},
	})
	if err != nil {
		return fmt.Errorf("cluster: gateway for server %d: %w", slot, err)
	}
	c.Gateways[slot] = gw
	return nil
}

// GatewayAddr returns one slot's gateway address (host:port), "" when the
// slot has none (no GatewayPerSlot, byzantine, or crashed).
func (c *Cluster) GatewayAddr(slot int) string {
	if c.Gateways[slot] == nil {
		return ""
	}
	return c.Gateways[slot].Addr()
}

// Close tears down the client plane: every live gateway drains and every
// broker wakes its subscribers with the terminal signal. The simulation
// itself holds no other external resources (stores are caller-closed).
func (c *Cluster) Close() {
	for i := range c.Gateways {
		c.closeGateway(i)
	}
}

// closeGateway shuts one slot's gateway and broker down (idempotent).
func (c *Cluster) closeGateway(slot int) {
	if gw := c.Gateways[slot]; gw != nil {
		_ = gw.Close()
		c.Gateways[slot] = nil
	}
	if br := c.Brokers[slot]; br != nil {
		br.Close()
		c.Brokers[slot] = nil
	}
}

// register attaches one slot's consumers to the network: the server on
// the gossip channel and — when the slot is durable, or the cluster runs
// the live-follower loop — a catch-up server on the sync channel, so any
// peer can bulk-sync or follow from this slot. Durable slots stream
// their store; follower-only slots stream straight from the DAG (both
// safe on the event loop). Watermark queries are answered from the DAG
// in either case, the simulator's stand-in for the node runtime's
// incrementally tracked vector. The catch-up server runs under the
// hardening policy (in-flight cap, optional token bucket on the
// simulated clock), exactly as a production node would.
func (c *Cluster) register(slot int, srv *core.Server, st *store.Store) {
	id := types.ServerID(slot)
	c.Net.Register(id, transport.ChanGossip, srv)
	if st == nil && c.opts.FollowEvery <= 0 {
		return
	}
	sync := &syncsvc.Server{
		Store:  st,
		Every:  c.opts.SyncEvery,
		Burst:  c.opts.SyncBurst,
		Clock:  c.Net.Now,
		Scores: c.Scorers[slot],
		Watermarks: func() []syncsvc.Watermark {
			return syncsvc.DAGWatermarks(srv.DAG())
		},
	}
	if st == nil {
		sync.Source = func() ([]*block.Block, error) {
			return srv.DAG().Blocks(), nil
		}
	}
	c.Net.RegisterHandler(id, transport.ChanSync, sync)
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

// wireAccountability equips one slot's core.Config with a fresh evidence
// pool and peer scorer when Options.Accountability is set: gossip gains
// the proof/ban machinery, the simulated network tears down links the
// scorer bans, and — durable slots only — accepted proofs persist in the
// store's evidence sidecar. Scores are volatile (a restart forgets
// quarantine standing, as a real process would); bans are not, because
// recovery re-seeds them from the sidecar via core.Server.SeedEvidence.
func (c *Cluster) wireAccountability(slot int, cfg *core.Config, st *store.Store) {
	if !c.opts.Accountability {
		return
	}
	pool := evidence.NewPool()
	sc := peerscore.New(peerscore.Options{Clock: c.Net.Now})
	c.EvidencePools[slot] = pool
	c.Scorers[slot] = sc
	c.Net.RegisterScorer(types.ServerID(slot), sc)
	cfg.Evidence = pool
	cfg.Scores = sc
	if st != nil {
		cfg.OnEvidence = st.AppendEvidence
	}
}

// newPool builds (and records) one slot's ingestion pool when
// Options.MempoolCapacity asks for one; nil otherwise.
func (c *Cluster) newPool(slot int) *mempool.Pool {
	if c.opts.MempoolCapacity <= 0 {
		return nil
	}
	c.Pools[slot] = mempool.New(mempool.Options{Capacity: c.opts.MempoolCapacity})
	return c.Pools[slot]
}

// Request submits a user request at the given correct server.
func (c *Cluster) Request(server int, label types.Label, data []byte) {
	c.Servers[server].Request(label, data)
}

// Submit is the backpressure-aware form of Request: on a cluster with
// mempools it returns the admission verdict (mempool.ErrFull,
// mempool.ErrDuplicate, a validation error); without them it always
// accepts.
func (c *Cluster) Submit(server int, label types.Label, data []byte) error {
	return c.Servers[server].Submit(label, data)
}

// MempoolStats returns one slot's pool counters; the zero value when the
// cluster runs without mempools (or the slot is down).
func (c *Cluster) MempoolStats(slot int) mempool.Stats {
	if c.Pools[slot] == nil {
		return mempool.Stats{}
	}
	return c.Pools[slot].Stats()
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

// RunRounds schedules `rounds` dissemination rounds — every correct server
// ticks its timers and disseminates once per round, staggered to break
// symmetry — then runs the network to quiescence.
func (c *Cluster) RunRounds(rounds int) error {
	for r := 0; r < rounds; r++ {
		at := time.Duration(r) * c.interval
		for i, srv := range c.Servers {
			if srv == nil {
				continue
			}
			stagger := time.Duration(i) * time.Millisecond
			c.Net.After(at+stagger, func() {
				c.injectLoad(i)
				srv.Tick(c.Net.Now())
				if err := srv.Disseminate(); err != nil {
					// Recorded by Health below; dissemination
					// of a correct server cannot fail.
					_ = err
				}
				c.maybeCheckpoint(i)
				c.maybeFollow(i)
			})
		}
	}
	c.Net.Run()
	return c.Health()
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

// maybeCheckpoint applies the automatic checkpoint policy to one slot —
// the simulator's mirror of the node runtime's segment-count trigger.
func (c *Cluster) maybeCheckpoint(slot int) {
	if c.opts.CheckpointEverySegments <= 0 {
		return
	}
	st, srv := c.Stores[slot], c.Servers[slot]
	if st == nil || srv == nil || st.WALSegments() < c.opts.CheckpointEverySegments {
		return
	}
	// A checkpoint failure would surface on the next append or the
	// test's own store assertions; the simulation keeps running.
	_, _ = st.Checkpoint(srv.DAG())
}

// FollowStats returns one slot's live-follower counters.
func (c *Cluster) FollowStats(slot int) FollowStats { return c.follow[slot].stats }

// maybeFollow runs one slot's live-follower policy: when the poll period
// has elapsed and no poll is outstanding, send a watermark-exchange
// query to the next peer in rotation; if the answer advertises blocks
// the local DAG lacks, pull the missing suffix through the validated
// delta stream and absorb it into the running server. The whole chain —
// query, decision, stream, absorption — runs as simulator events, so it
// is deterministic and interleaves with gossip exactly as the node
// runtime's follower loop interleaves with its event channels.
func (c *Cluster) maybeFollow(slot int) {
	if c.opts.FollowEvery <= 0 {
		return
	}
	if now := c.Net.Now(); now-c.follow[slot].lastPoll >= c.opts.FollowEvery {
		c.followPoll(slot)
	}
}

// FollowOnce schedules one immediate follow poll at the given slot,
// regardless of how recently the periodic policy polled (FollowEvery
// must be enabled; an outstanding poll still wins). Tests and benchmarks
// use it to converge a healed follower at a quiet moment — with nothing
// else scheduled, running the network to quiescence isolates exactly the
// follow path's traffic.
func (c *Cluster) FollowOnce(slot int) {
	c.Net.After(0, func() { c.followPoll(slot) })
}

// followPoll opens one watermark-exchange query at the slot against the
// next peer in rotation.
func (c *Cluster) followPoll(slot int) {
	fs := &c.follow[slot]
	srv := c.Servers[slot]
	if srv == nil || fs.inFlight || c.opts.FollowEvery <= 0 {
		return
	}
	peers := c.followPeers(slot)
	if len(peers) == 0 {
		return
	}
	// Score-weighted rotation: with accountability on, quarantined peers
	// are polled only when no clean peer remains and banned peers never;
	// without a scorer this is the plain round-robin it always was.
	peer, ok := c.Scorers[slot].Pick(peers, fs.nextPeer)
	fs.nextPeer++
	if !ok {
		return // every peer is banned; FWD gossip remains the fallback
	}
	fs.lastPoll = c.Net.Now()
	fs.inFlight = true
	fs.stats.Polls++
	query := syncsvc.NewWatermarkQuery(func(wms []syncsvc.Watermark, err error) {
		c.followDecide(slot, srv, peer, wms, err)
	})
	c.Net.Transport(types.ServerID(slot)).Call(peer, transport.ChanSync, syncsvc.EncodeWatermarkRequest(), query)
}

// followPeers lists the slots a follower polls: every other roster slot,
// in ServerID order. Crashed or byzantine peers simply fail the call;
// rotation reaches a live one within a round-trip's worth of polls.
func (c *Cluster) followPeers(slot int) []types.ServerID {
	peers := make([]types.ServerID, 0, c.opts.N-1)
	for i := 0; i < c.opts.N; i++ {
		if i != slot {
			peers = append(peers, types.ServerID(i))
		}
	}
	return peers
}

// followDecide consumes a watermark answer on the event loop: drop stale
// polls (the slot crashed or was rebuilt mid-flight), count failures,
// and open the delta pull when the peer is ahead. The decision core is
// syncsvc.DeltaIfBehind, shared with the node runtime's follower.
func (c *Cluster) followDecide(slot int, srv *core.Server, peer types.ServerID, wms []syncsvc.Watermark, err error) {
	fs := &c.follow[slot]
	if c.Servers[slot] != srv {
		fs.inFlight = false
		return
	}
	if err != nil {
		c.followFail(slot, peer, err)
		return
	}
	pull, perr := syncsvc.DeltaIfBehind(c.Roster, srv.DAG(), nil, wms, 0)
	if perr != nil {
		c.followFail(slot, peer, perr)
		return
	}
	if pull == nil {
		fs.inFlight = false // in sync with this peer; nothing to pull
		return
	}
	fs.stats.Deltas++
	sink := syncsvc.PullDone(pull, func() { c.followAbsorb(slot, srv, peer, pull) })
	c.Net.Transport(types.ServerID(slot)).Call(peer, transport.ChanSync, pull.Request(), sink)
}

// followAbsorb feeds a finished delta pull's validated blocks to the
// running server (syncsvc.AbsorbPull, shared with the node runtime).
// Every absorbed block passed full validation whatever the stream's
// terminal error, so a truncated or lying stream still yields its
// genuine prefix; the rest arrives on a later poll or via FWD. An
// absorb error is latched in srv.Health.
func (c *Cluster) followAbsorb(slot int, srv *core.Server, peer types.ServerID, pull *syncsvc.Pull) {
	fs := &c.follow[slot]
	if c.Servers[slot] != srv {
		fs.inFlight = false
		return
	}
	absorbed, _, streamErr := syncsvc.AbsorbPull(pull, srv.AbsorbVerified)
	fs.stats.Blocks += absorbed
	if streamErr != nil {
		c.followFail(slot, peer, streamErr)
		return
	}
	fs.inFlight = false
}

// followFail settles a failed poll, classifying throttles separately (the
// follower's cue that rotation, which the next poll does anyway, is the
// right response; with accountability on, a throttling peer additionally
// loses standing in the score-weighted rotation).
func (c *Cluster) followFail(slot int, peer types.ServerID, err error) {
	fs := &c.follow[slot]
	if errors.Is(err, syncsvc.ErrThrottled) {
		fs.stats.Throttled++
		c.Scorers[slot].Penalize(peer, peerscore.Throttled)
	} else {
		fs.stats.Errors++
	}
	fs.inFlight = false
}

// Health surfaces the first internal error of any correct server.
func (c *Cluster) Health() error {
	for i, srv := range c.Servers {
		if srv == nil {
			continue
		}
		if err := srv.Health(); err != nil {
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

// Crash simulates a full stop of the given server: it stops disseminating
// (its slot becomes nil) and it is deregistered from the network, so
// future traffic to it is dropped and any catch-up stream it was serving
// aborts with transport.ErrStreamLost at the client. A store attached to
// the slot is abandoned (store.Store.Abandon) without sealing or fsyncing
// the live segment — the power-cut model — releasing its file handle so
// crash/recover loops do not leak descriptors; reopen the directory via
// RecoverServerFromStore (or store.Open for offline work). Recover the
// slot with RecoverServer, RecoverServerFromStore, or — to exercise the
// bulk sync path — RecoverServerViaSync.
func (c *Cluster) Crash(slot int) {
	c.Servers[slot] = nil
	if st := c.Stores[slot]; st != nil {
		st.Abandon()
	}
	c.Stores[slot] = nil
	// The mempool is volatile state: queued requests die with the
	// process, exactly as in production. Recovery builds a fresh pool.
	c.Pools[slot] = nil
	// So are the evidence pool and scorer: recovery re-seeds bans from
	// the store's evidence sidecar, which is the whole point of it.
	c.EvidencePools[slot] = nil
	c.Scorers[slot] = nil
	// The gateway dies with the process: in-flight clients get the clean
	// terminal signal (closed broker), new connections are refused until
	// recovery opens a fresh gateway on a fresh port.
	c.closeGateway(slot)
	c.Net.RegisterScorer(types.ServerID(slot), nil)
	c.Net.Deregister(types.ServerID(slot))
}

// BannedEverywhere reports whether every correct server's scorer has the
// given server in the terminal banned state. False on clusters without
// Options.Accountability.
func (c *Cluster) BannedEverywhere(id types.ServerID) bool {
	any := false
	for i, srv := range c.Servers {
		if srv == nil || types.ServerID(i) == id {
			continue
		}
		if c.Scorers[i] == nil || !c.Scorers[i].Banned(id) {
			return false
		}
		any = true
	}
	return any
}

// RecoverServer restarts a crashed slot from persisted blocks: a fresh
// core.Server is built, Restore replays the blocks (re-validating and
// re-interpreting them), the gossip chain state resumes the old chain, and
// the endpoint is re-registered. Replayed indications are appended to the
// slot's indication record, so callers observe at-least-once delivery
// across the crash.
func (c *Cluster) RecoverServer(slot int, proto protocol.Protocol, stored []*block.Block) error {
	return c.RecoverServerWith(slot, proto, stored, false)
}

// RecoverServerWith is RecoverServer with the compression extension
// toggled explicitly; the recovered server's mode must match the rest of
// the deployment.
//
// On a cluster with Options.StoreDir both variants refuse: rebuilding the
// slot without its store would journal nothing from then on, so a second
// crash would restore a stale prefix and re-use published sequence
// numbers — the self-equivocation the store exists to prevent. Use
// RecoverServerFromStore there.
func (c *Cluster) RecoverServerWith(slot int, proto protocol.Protocol, stored []*block.Block, compress bool) error {
	if c.opts.StoreDir != "" {
		return fmt.Errorf("cluster: recover server %d: cluster has durable stores, use RecoverServerFromStore", slot)
	}
	return c.recoverServer(slot, proto, stored, compress, nil)
}

// RecoverServerFromStore restarts a crashed slot from its on-disk store:
// the store directory under Options.StoreDir is reopened (replaying the
// WAL, truncating any torn tail, revalidating every block), the recovered
// blocks are restored into a fresh server, and journaling resumes on the
// same store — the full production crash-recovery path, in simulation.
func (c *Cluster) RecoverServerFromStore(slot int, proto protocol.Protocol) error {
	if c.opts.StoreDir == "" {
		return fmt.Errorf("cluster: recover server %d from store: cluster has no StoreDir", slot)
	}
	st, err := c.openStore(slot)
	if err != nil {
		return err
	}
	return c.recoverServer(slot, proto, st.Blocks(), c.opts.CompressReferences, st)
}

// RecoverServerViaSync restarts a crashed slot through bulk catch-up: the
// slot's store is reopened (possibly empty — the disk-loss model), a
// catch-up stream is pulled from the given peer's store over
// transport.ChanSync, every streamed block is validated against the
// roster and the DAG rules, the validated blocks are journaled, and the
// server restores store plus stream in one replay. The network is driven
// until the stream terminates, so the call is deterministic.
//
// The serving peer is untrusted: a stream carrying a tampered or
// ill-ordered block aborts with its validation error, the slot stays
// down, and nothing invalid touches the slot's store or server — the
// caller retries against another peer or falls back to
// RecoverServerFromStore (per-block FWD then fills any gap).
func (c *Cluster) RecoverServerViaSync(slot int, proto protocol.Protocol, from int) error {
	if c.opts.StoreDir == "" {
		return fmt.Errorf("cluster: recover server %d via sync: cluster has no StoreDir", slot)
	}
	st, err := c.openStore(slot)
	if err != nil {
		return err
	}
	seed := st.Blocks()
	pull, err := syncsvc.NewPull(c.Roster, seed, 0)
	if err != nil {
		st.Abandon()
		return fmt.Errorf("cluster: recover server %d via sync: %w", slot, err)
	}
	tr := c.Net.Transport(types.ServerID(slot))
	cancel := tr.Call(types.ServerID(from), transport.ChanSync, pull.Request(), pull)
	if !c.Net.RunUntil(pull.Done) {
		cancel()
		st.Abandon()
		return fmt.Errorf("cluster: recover server %d via sync: network quiesced before the stream ended", slot)
	}
	fetched, perr := pull.Result()
	if perr != nil {
		st.Abandon()
		return fmt.Errorf("cluster: recover server %d via sync from %d: %w", slot, from, perr)
	}
	for _, b := range fetched {
		if err := st.Append(b); err != nil {
			st.Abandon()
			return fmt.Errorf("cluster: recover server %d via sync: journal: %w", slot, err)
		}
	}
	if err := st.Sync(); err != nil {
		st.Abandon()
		return fmt.Errorf("cluster: recover server %d via sync: %w", slot, err)
	}
	replay := append(append([]*block.Block(nil), seed...), fetched...)
	return c.recoverServer(slot, proto, replay, c.opts.CompressReferences, st)
}

// recoverServer rebuilds one slot from persisted blocks, optionally
// resuming journaling on st.
func (c *Cluster) recoverServer(slot int, proto protocol.Protocol, stored []*block.Block, compress bool, st *store.Store) error {
	id := types.ServerID(slot)
	m := &metrics.Metrics{}
	broker := c.newBroker(slot)
	cfg := core.Config{
		Roster:             c.Roster,
		Signer:             c.Signers[slot],
		Protocol:           proto,
		Transport:          c.Net.Transport(id),
		Clock:              c.Net.Now,
		Metrics:            m,
		VerifyWorkers:      c.opts.VerifyWorkers,
		Mempool:            c.newPool(slot),
		CompressReferences: compress,
		OnIndication: func(label types.Label, value []byte) {
			c.inds[slot] = append(c.inds[slot], Indication{
				Server: id, Label: label, Value: value,
			})
			broker.Publish(label, value)
		},
	}
	if st != nil {
		cfg.OnPersist = st.PersistSink(id)
	}
	c.wireAccountability(slot, &cfg, st)
	srv, err := core.NewServer(cfg)
	if err != nil {
		return fmt.Errorf("cluster: recover server %d: %w", slot, err)
	}
	if st != nil {
		// A pruned store stands on a base table: seed it before the
		// replay so chains resume above the horizon.
		if base := st.Base(); len(base) > 0 {
			if err := srv.SeedBase(base); err != nil {
				return fmt.Errorf("cluster: recover server %d: %w", slot, err)
			}
		}
	}
	if err := srv.Restore(stored); err != nil {
		return fmt.Errorf("cluster: recover server %d: %w", slot, err)
	}
	if st != nil {
		// Replay the evidence sidecar: bans survive the crash even when
		// the proof's blocks never made it into the replayable DAG.
		srv.SeedEvidence(st.Evidence())
	}
	c.register(slot, srv, st)
	c.Servers[slot] = srv
	c.Metrics[slot] = m
	c.Stores[slot] = st
	return c.openGateway(slot)
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
