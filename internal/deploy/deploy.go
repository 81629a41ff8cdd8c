// Package deploy assembles a node — the one place that orders store, sync
// service, transport, core server, runtime and gateway, for a deployed node
// and for every slot of the simulator alike.
//
//	Listen   clock + scorer → store.Open → syncsvc.Server → late-bound
//	         gossip endpoint → the network's listener
//	Boot     mesh → snapshot join → core.NewServer → node.New (with a
//	         store: replay) → registry → gateway → the network's start (the
//	         runtime registers on its store, serves pulls from its DAG, and
//	         its loop begins with the first poll) → bind gossip
//	Close    the reverse: gateway (by the runtime's stop hook), runtime,
//	         transport, store
//
// Two phases, because a cluster comes up in two: every member must be
// listening, and answering sync calls — if only with a refusal — before any
// member's first poll dials it. docs/ARCHITECTURE.md ("The assembly")
// gives the reason for each edge. What carries the bytes and tells the time
// are ListenOn's two seams: Listen is TCP (tcpnet.Listen, the node started
// on its own goroutine) on the wall clock (node.Clock); the simulator
// (package cluster) passes simnet and its virtual clock, and steps the
// node itself.
package deploy

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/gateway"
	"blockdag/internal/gossip"
	"blockdag/internal/interpret"
	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/peerscore"
	"blockdag/internal/protocol"
	"blockdag/internal/roster"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// What every deployment so far has run with; none has needed another value.
const (
	disseminateEvery = 20 * time.Millisecond // Config.DisseminateEvery's default
	// The sync server's per-peer token bucket, on top of its in-flight
	// cap: a byzantine peer cannot make the node read and stream the rows
	// it names back to back. One request a re-ask: an honest follower pulls
	// at most once a gossip.ResendAfter (node.Node.Tick), so it is never
	// refused.
	syncEvery, syncBurst = gossip.ResendAfter, 8
	pollTimeout          = 5 * time.Second
	snapshotTimeout      = 10 * time.Second
)

// Config declares one node.
type Config struct {
	// Identity is who the node is: roster, key, signer, authenticator.
	// Counters installed on its roster appear in the /metrics scrape.
	// Required.
	Identity *roster.Identity
	// ListenAddr is the bind address (default: the identity's roster address).
	ListenAddr string
	// Protocol is the embedded protocol P. Required (Boot checks).
	Protocol protocol.Protocol
	// OnIndication receives P's indications on the loop goroutine.
	OnIndication func(label types.Label, value []byte)
	// DisseminateEvery is the block period (default 20 ms): the tick that
	// builds a block when the node has a reason to (node.Config).
	DisseminateEvery time.Duration

	// StoreDir, if non-empty, makes the node durable: blocks are journaled
	// there under the Fsync policy and replayed at Boot, and the sync server
	// reaches the runtime through it. A durable node catches up: its started
	// loop's first poll pulls what the store lacks from a peer before it
	// seals, and after that it pulls from a rotating peer whenever gossip
	// shows it lagging (node.Config.CatchUp, node.Node.Tick).
	StoreDir string
	Fsync    store.SyncPolicy
	// MempoolCapacity is the capacity of the ingestion pool in front of
	// block production (0 = the pool's default, mempool.DefaultCapacity).
	MempoolCapacity int

	// State, if non-nil, is the Merkle-committed machine the caller feeds
	// from OnIndication: the runtime seals it into the store's head, and
	// prunes journaled history at the interpreter's cut, behind which no
	// instance was live (node.Config.State; needs StoreDir); the sync server
	// serves that head, signed with the identity's key. Pruning is on
	// exactly when State is. SnapshotJoin makes a node whose store holds
	// nothing install a roster-certified snapshot from its peers at Boot.
	State        *state.Machine
	SnapshotJoin bool

	// GatewayAddr, if non-empty, serves the client gateway there;
	// GatewayToken puts its API behind that bearer token.
	GatewayAddr  string
	GatewayToken string
}

// Network binds a member to what carries its bytes: the listener with
// cfg's endpoints, handlers and scorer in place. Listen's is TCP, which
// proves every connection with cfg's authenticator; the simulator's trusts
// its links.
type Network func(cfg tcpnet.Config) (Link, error)

// Link is one member's place on a Network.
type Link interface {
	transport.Transport
	// Connect tells the link a peer's dial address.
	Connect(peer types.ServerID, addr string) error
	// Addr is the bound listen address.
	Addr() string
	// Counts are the link's counters (nil: none).
	Counts() *metrics.Metrics
	// Start runs the booted node whose start is start: on a socket, start
	// (node.Start: the node's own goroutine); on a network whose owner
	// steps the node, nothing.
	Start(start func() error) error
	Close() error
}

// tcp is Listen's network: a tcpnet listener, whose start is node.Start.
func tcp(cfg tcpnet.Config) (Link, error) {
	tr, err := tcpnet.Listen(cfg)
	if err != nil {
		return nil, err
	}
	return tcpLink{tr}, nil
}

type tcpLink struct{ *tcpnet.Transport }

func (tcpLink) Start(start func() error) error { return start() }

// Assembly is one node being brought up, running, or closed. The exported
// fields are for reading: each is nil until the phase that sets it.
type Assembly struct {
	// Set by Listen; Store only with Config.StoreDir.
	Store     *store.Store
	Transport Link
	// Set by Boot; Joined only if a snapshot join ran, Gateway only with
	// Config.GatewayAddr.
	Joined   *syncsvc.FetchedSnapshot
	Node     *node.Node
	Registry *metrics.Registry
	Gateway  *gateway.Gateway

	cfg Config
	// clock and scores are the node's one clock and one peer scorer — its
	// one in-memory set of convictions, seeded from the store's head: made
	// by Listen, because the transport's ban gates and the sync server's
	// throttle signal and token bucket exist before the core server does,
	// and handed to all three so a conviction in gossip closes the sockets
	// too.
	clock   func() time.Duration
	scores  *peerscore.Scorer
	syncSrv *syncsvc.Server
	gossip  transport.LateBound

	closeOnce sync.Once
	closeErr  error
}

// Listen is ListenOn over TCP, on the wall clock.
func Listen(cfg Config) (*Assembly, error) { return ListenOn(tcp, node.Clock(), cfg) }

// ListenOn opens the store, if one is configured, and binds the member on
// net with the sync handler and the gossip endpoint in place: the node is
// reachable and runs nothing yet, so the handler refuses pulls
// (syncsvc.ErrNotServing) until Boot has started the runtime. clock is the
// node's one clock: its server's, its scorer's, its store's and its sync
// server's.
func ListenOn(net Network, clock func() time.Duration, cfg Config) (*Assembly, error) {
	id := cfg.Identity
	switch {
	case id == nil:
		return nil, errors.New("deploy: config needs an Identity")
	case cfg.State == nil && cfg.SnapshotJoin:
		return nil, errors.New("deploy: SnapshotJoin needs State")
	}
	if cfg.ListenAddr == "" {
		cfg.ListenAddr = id.File.Addr(id.ID())
	}
	if cfg.DisseminateEvery <= 0 {
		cfg.DisseminateEvery = disseminateEvery
	}
	a := &Assembly{cfg: cfg, clock: clock}
	a.scores = peerscore.New()
	tcfg := tcpnet.Config{
		Self:       id.ID(),
		ListenAddr: cfg.ListenAddr,
		Auth:       id.Auth(),
		Endpoints:  map[transport.Channel]transport.Endpoint{transport.ChanGossip: &a.gossip},
		Scores:     a.scores,
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, store.Options{Roster: id.Roster, Sync: cfg.Fsync, Clock: clock})
		if err != nil {
			return nil, err
		}
		a.Store = st
		// The convictions the head holds close the sockets from the first
		// accepted connection on — through a snapshot join too — not from
		// Boot, where the server's replay of the same proofs finds them held.
		for _, p := range st.Evidence() {
			a.scores.Convict(p)
		}
		// The runtime is the store's while it runs (node.Node.Start); without
		// it there is no live vector, no snapshot and no pull served. The
		// snapshot is the store's head, signed with the node's key.
		a.syncSrv = &syncsvc.Server{
			Store: st, Every: syncEvery, Burst: syncBurst, Clock: a.clock, Scores: a.scores, Signer: id.Signer,
			Watermarks: func() []syncsvc.Watermark {
				if nd, _ := st.Runtime().(*node.Node); nd != nil {
					return nd.Watermarks()
				}
				return nil
			},
		}
		tcfg.Handlers = map[transport.Channel]transport.Handler{transport.ChanSync: a.syncSrv}
	}
	tr, err := net(tcfg)
	if err != nil {
		_ = a.Close()
		return nil, err
	}
	a.Transport = tr
	return a, nil
}

// Addr returns the bound listen address (the port chosen, for ":0").
func (a *Assembly) Addr() string { return a.Transport.Addr() }

// Boot connects the mesh — addrOf gives every other roster member's dial
// address — joins by snapshot if configured and the store holds nothing,
// builds the runtime, opens the gateway, starts the runtime as the network
// starts it and binds it to the gossip endpoint. Call it once, when every
// member has Listened. A Boot that fails has closed the assembly.
func (a *Assembly) Boot(addrOf func(types.ServerID) string) (err error) {
	defer func() {
		if err != nil {
			_ = a.Close()
		}
	}()
	cfg, id := a.cfg, a.cfg.Identity
	var peers []types.ServerID
	for _, peer := range id.Roster.IDs() {
		if peer == id.ID() {
			continue
		}
		addr := addrOf(peer)
		if addr == "" {
			return fmt.Errorf("deploy: s%d: no dial address for peer s%d", id.ID(), peer)
		}
		if err := a.Transport.Connect(peer, addr); err != nil {
			return err
		}
		peers = append(peers, peer)
	}
	if cfg.SnapshotJoin && a.Store != nil && a.Store.Len() == 0 && len(a.Store.Head().Base) == 0 {
		if err := a.snapshotJoin(peers); err != nil {
			return fmt.Errorf("deploy: s%d snapshot join: %w", id.ID(), err)
		}
		// The anchor first: it provably holds the blocks above the horizon
		// just installed.
		peers = anchorFirst(peers, a.Joined.Anchor)
	}

	ccfg := core.Config{
		Roster:       id.Roster,
		Signer:       id.Signer,
		Protocol:     cfg.Protocol,
		Transport:    a.Transport,
		Clock:        a.clock,
		Metrics:      &metrics.Metrics{},
		OnIndication: cfg.OnIndication,
		Mempool:      mempool.New(mempool.Options{Capacity: cfg.MempoolCapacity}),
		Scores:       a.scores,
	}
	ncfg := node.Config{
		Identity:         id,
		DisseminateEvery: cfg.DisseminateEvery,
		Store:            a.Store,
		State:            cfg.State,
	}
	if a.Store != nil && len(peers) > 0 {
		ncfg.CatchUp = &syncsvc.FetchConfig{Transport: a.Transport, Peers: peers, Timeout: pollTimeout}
	}
	// node.New does the ordered part: sinks before replay.
	srv, err := core.NewServer(ccfg)
	if err != nil {
		return err
	}
	ncfg.Server = srv
	if a.Node, err = node.New(ncfg); err != nil {
		return err
	}

	// The gateway opens before the loop publishes anything: it claims the
	// broker's replay index while that still holds what the store replayed.
	a.Registry = Registry(a.Node.Server(), a.Transport.Counts(), a.syncSrv.Counts(), id.Roster.Counters())
	if cfg.GatewayAddr != "" {
		gcfg := gateway.Config{Node: a.Node, Registry: a.Registry}
		if cfg.GatewayToken != "" {
			gcfg.Tokens = []string{cfg.GatewayToken}
		}
		if a.Gateway, err = gateway.Listen(cfg.GatewayAddr, gcfg); err != nil {
			return fmt.Errorf("deploy: s%d gateway: %w", id.ID(), err)
		}
	}
	if err := a.Transport.Start(a.Node.Start); err != nil {
		return err
	}
	// The runtime is the store's once it runs: node.Start registered it, a
	// stepped node is registered here. Gossip reaches the node after that:
	// a started node's deliveries queue for its loop from the first, behind
	// its first poll, so it inserts nothing before that poll goes out.
	if a.Store != nil {
		a.Store.SetRuntime(a.Node)
	}
	a.gossip.Bind(a.Node)
	return nil
}

// Registry is the one place a node's scrape is put together: the server's
// counters, where its DAG's block bytes are and its chain heads, its
// interpreter's per-chain lag, its mempool and its scorer,
// and — nil where the shell has none, which collects nothing — the
// transport's, the sync server's and the signature counters. A gateway
// serving the registry adds its own.
func Registry(srv *core.Server, transport, sync, sigs *metrics.Metrics) *metrics.Registry {
	reg := metrics.NewRegistry()
	reg.Register(metrics.Families.Collector(srv.Counts()))
	reg.Register(srv.DAG().Collect)
	reg.Register(interpret.CollectChainUnread(srv.ChainUnread))
	reg.Register(srv.Mempool().Collect)
	reg.Register(srv.Scores().Collect)
	reg.Register(tcpnet.Families.Collector(transport))
	reg.Register(syncsvc.Families.Collector(sync))
	reg.Register(crypto.Families.Collector(sigs))
	return reg
}

// snapshotJoin is the wiped-node path of the snapshot tier: fetch a
// roster-certified state snapshot from the peers, every chunk verified
// against the certified root, and install it as the store's head for
// node.New to restore from — the head the node then serves in turn.
func (a *Assembly) snapshotJoin(peers []types.ServerID) error {
	fetched, err := syncsvc.FetchSnapshot(syncsvc.FetchConfig{
		Transport: a.Transport,
		Roster:    a.cfg.Identity.Roster,
		Peers:     peers,
		Timeout:   snapshotTimeout,
	})
	if err != nil {
		return err
	}
	a.Joined = fetched
	return a.Store.InstallSnapshot(fetched.Head)
}

// anchorFirst moves anchor to the head of peers, the rest keeping their
// order.
func anchorFirst(peers []types.ServerID, anchor types.ServerID) []types.ServerID {
	rest := slices.DeleteFunc(slices.Clone(peers), func(id types.ServerID) bool { return id == anchor })
	return append([]types.ServerID{anchor}, rest...)
}

// Close releases whatever Listen and Boot acquired, in reverse: the runtime
// stops — its stop hook, registered by the gateway, drains and closes that
// first, so awaits and streams get their terminal response before the loop
// dies — then transport and store close. It reports the transport's or the
// store's close error. Idempotent.
func (a *Assembly) Close() error {
	a.closeOnce.Do(func() {
		if a.Node != nil {
			a.Node.Stop()
		}
		if a.Transport != nil {
			a.closeErr = a.Transport.Close()
		}
		if a.Store != nil {
			a.closeErr = errors.Join(a.closeErr, a.Store.Close())
		}
	})
	return a.closeErr
}
