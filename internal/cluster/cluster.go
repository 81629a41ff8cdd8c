// Package cluster runs complete shim(P) clusters on the deterministic
// network simulator: n correct slots, each a node assembled the way a
// deployed node is — deploy.ListenOn + Boot, with simnet as the network and
// its virtual clock as the clock — exchanging blocks over simnet with
// configurable latency, jitter, and loss.
//
// The cluster is the simulator's shell around that assembly, and nothing
// more: it never starts a node's goroutine; it steps the node's turns
// (Tick, Disseminate, DisseminateIfFull, and Deliver from simnet's
// deliveries) from simnet events on the virtual clock, so a run is a
// deterministic function of its seed. Follow polls, catch-up pulls, the
// sync server, the seal/prune cycle, store recovery, evidence replay and
// gateway wiring are the deployed node's own code. A slot restarts the way
// a process does: its assembly closes (or a Crash cuts its power) and a
// new one is listened and booted over the same store directory.
//
// It is the shared harness behind the integration tests of Theorem 5.1,
// the root benchmarks, the experiments CLI, and the examples. Byzantine
// servers are modeled by leaving their slot without a correct server and
// driving hand-crafted (but validly signed) blocks through the test's own
// logic via Seal and Send.
package cluster

import (
	"cmp"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/deploy"
	"blockdag/internal/gossip"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocol"
	"blockdag/internal/roster"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// Indication is one indication observed at a correct server, at virtual
// time At.
type Indication struct {
	Server types.ServerID
	Label  types.Label
	Value  []byte
	At     time.Duration
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
	// Interval is the dissemination period (default 50ms): the rounds'
	// spacing and every node's block period (deploy.Config.DisseminateEvery).
	Interval time.Duration

	// MempoolCapacity is the capacity of every correct server's ingestion
	// pool (deploy.Config.MempoolCapacity; 0 = the pool's default):
	// submissions deduplicate, validate, and hit backpressure exactly as in
	// production. A restarted server gets a fresh pool (a mempool is
	// volatile state; queued requests do not survive a crash).
	MempoolCapacity int

	// LoadPerRound, if > 0, submits that many synthetic client requests
	// at every correct server before each dissemination round — a
	// deterministic stand-in for client traffic, labeled
	// "load/s<slot>/<seq>" with the sequence number as payload so every
	// request is unique and runs reproduce exactly.
	LoadPerRound int
	// StoreDir, if non-empty, makes every correct server durable: its
	// store is StoreDir/s<i> (deploy.Config.StoreDir), so each inserted
	// block is journaled before interpretation, own blocks before
	// dissemination, exactly as in production, a server with pre-existing
	// store contents restores from them, and the slot serves the sync
	// channel and runs the live follower. Stores run with SyncNever (the
	// simulation models power cuts by truncation, not by fsync) on the
	// virtual clock; polls, streams and absorptions all ride the
	// simulator's event loop, so runs stay deterministic.
	StoreDir string

	// slot, if set, edits slot i's configuration before each Listen — at
	// New and at every Restart: a test gives a slot a gateway or State
	// here.
	slot func(i int, cfg *deploy.Config)
}

// Cluster is a running simulation.
type Cluster struct {
	Net *simnet.Network
	// Fixture is the roster fixture the cluster's identities came from.
	Fixture *roster.Fixture
	Roster  *crypto.Roster
	Signers []*crypto.Signer
	// Sigs tallies every signature operation of every server (experiment
	// E10).
	Sigs crypto.Counters
	// Nodes holds each correct slot's runtime, booted by deploy and never
	// started: the cluster steps it. Byzantine and crashed slots are nil.
	Nodes []*node.Node
	// Servers holds Nodes[i].Server() for every live correct slot (nil
	// otherwise): the state machine most tests talk to. A slot's mempool
	// and scorer — its convictions — are the server's (Mempool, Scores).
	Servers []*core.Server
	// Metrics holds each correct server's counters (nil for byzantine
	// slots).
	Metrics []*metrics.Metrics
	// Stores holds each correct server's durable block store when
	// Options.StoreDir was set (nil otherwise, and for byzantine and
	// crashed slots).
	Stores []*store.Store

	opts  Options
	slots []*deploy.Assembly
	inds  [][]Indication
	// loadSeq numbers each slot's synthetic requests across rounds and
	// restarts, keeping LoadPerRound traffic unique and reproducible.
	loadSeq []uint64
}

// New builds a cluster per the options.
func New(opts Options) (*Cluster, error) {
	if opts.N < 1 {
		return nil, fmt.Errorf("cluster: need at least one server, got %d", opts.N)
	}
	opts.Interval = cmp.Or(opts.Interval, 50*time.Millisecond)

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
	c := &Cluster{
		Net: simnet.New(
			simnet.WithSeed(cmp.Or(opts.Seed, 1)),
			simnet.WithLatency(cmp.Or(opts.Latency, 10*time.Millisecond), cmp.Or(opts.Jitter, 5*time.Millisecond)),
			simnet.WithDrop(opts.Drop),
		),
		Fixture: fixture,
		Nodes:   make([]*node.Node, opts.N),
		Servers: make([]*core.Server, opts.N),
		Metrics: make([]*metrics.Metrics, opts.N),
		Stores:  make([]*store.Store, opts.N),

		opts:    opts,
		slots:   make([]*deploy.Assembly, opts.N),
		inds:    make([][]Indication, opts.N),
		loadSeq: make([]uint64, opts.N),
	}
	var err error
	if c.Roster, c.Signers, err = fixture.Signers(&c.Sigs); err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	// A byzantine slot gets no assembly: tests drive its traffic by hand
	// (Seal, Send), over links the simulator trusts.
	for i := 0; i < opts.N; i++ {
		if slices.Contains(opts.Byzantine, i) {
			continue
		}
		if err := c.up(i); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// up brings one correct slot up the way a process starts, at New and at
// every Restart: deploy.ListenOn over the simulator (simnet.Network.Listen)
// on its virtual clock, then Boot — which replays the slot's store, if it
// has one. Its mempool and scorer are fresh, as after a real restart; bans
// come back from the proofs in the store's head.
func (c *Cluster) up(slot int) error {
	id := types.ServerID(slot)
	identity, err := c.Fixture.File.Identity(c.Fixture.Keys[slot], &c.Sigs)
	if err != nil {
		return fmt.Errorf("cluster: server %d: %w", slot, err)
	}
	cfg := deploy.Config{
		Identity: identity,
		Protocol: c.opts.Protocol,
		OnIndication: func(label types.Label, value []byte) {
			c.inds[slot] = append(c.inds[slot], Indication{Server: id, Label: label, Value: value, At: c.Net.Now()})
		},
		DisseminateEvery: c.opts.Interval,
		MempoolCapacity:  c.opts.MempoolCapacity,
		Fsync:            store.SyncNever,
	}
	if c.opts.StoreDir != "" {
		cfg.StoreDir = filepath.Join(c.opts.StoreDir, fmt.Sprintf("s%d", slot))
	}
	if c.opts.slot != nil {
		c.opts.slot(slot, &cfg)
	}
	a, err := deploy.ListenOn(func(cfg tcpnet.Config) (deploy.Link, error) { return c.Net.Listen(cfg), nil }, c.Net.Now, cfg)
	if err == nil {
		err = a.Boot(func(types.ServerID) string { return "simnet" }) // simnet routes by id
	}
	if err != nil {
		return fmt.Errorf("cluster: server %d: %w", slot, err)
	}
	srv := a.Node.Server()
	c.slots[slot], c.Nodes[slot], c.Servers[slot], c.Metrics[slot], c.Stores[slot] = a, a.Node, srv, srv.Counts(), a.Store
	return nil
}

// stop closes a live slot's assembly and forgets the slot.
func (c *Cluster) stop(slot int) error {
	a := c.slots[slot]
	if a == nil {
		return nil
	}
	c.slots[slot], c.Nodes[slot], c.Servers[slot], c.Stores[slot] = nil, nil, nil, nil
	return a.Close()
}

// Request submits a user request at the given correct server.
func (c *Cluster) Request(server int, label types.Label, data []byte) {
	c.Servers[server].Request(label, data)
}

// injectLoad submits one round's synthetic client requests at a slot:
// Options.LoadPerRound unique, deterministically labeled requests, the
// simulator's stand-in for client traffic.
func (c *Cluster) injectLoad(slot int) {
	srv := c.Servers[slot]
	for k := 0; srv != nil && k < c.opts.LoadPerRound; k++ {
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
// apart, without running them: every correct slot takes a started node's
// period turn (Tick, then Disseminate) and its wake's stand-in
// (DisseminateIfFull) once per round, staggered to break symmetry. A caller
// stepping the network (simnet.Network.Step) can stop it when it likes.
func (c *Cluster) ScheduleRounds(rounds int) {
	for r := 0; r < rounds; r++ {
		at := time.Duration(r) * c.opts.Interval
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

// Crash cuts one slot's power: its store is abandoned
// (store.Store.Abandon) without sealing or fsyncing the live segment, then
// its assembly closes — the runtime takes no more turns, completions still
// in flight are dropped, its gateway closes and in-flight clients get the
// broker's terminal signal — and it leaves the network, so future traffic
// to it is dropped and any catch-up stream it was serving aborts with
// transport.ErrStreamLost at the client. Mempool and scorer die with it;
// Restart brings the slot back.
func (c *Cluster) Crash(slot int) {
	if a := c.slots[slot]; a != nil && a.Store != nil {
		a.Store.Abandon()
	}
	_ = c.stop(slot)
}

// Restart restarts one correct slot the way a process restarts: a live
// slot's assembly closes cleanly (a crashed one is down already), then a
// new one is listened and booted over the same store directory — the full
// production recovery path: the store is reopened (a torn tail truncated),
// replayed into a fresh server's live DAG, and journaled on from there;
// bans come back from the proofs in its head. Replayed indications are
// appended to the slot's record, so callers observe at-least-once delivery
// across the restart. A slot without a store comes back empty, a newcomer.
func (c *Cluster) Restart(slot int) error {
	if err := c.stop(slot); err != nil {
		return fmt.Errorf("cluster: restart server %d: %w", slot, err)
	}
	return c.up(slot)
}

// BannedEverywhere reports whether every correct server's scorer holds a
// proof against the given server.
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
