// Command tcp runs the production deployment path end to end: package
// deploy's assembly — authenticated TCP transport, durable store, sync
// service, node runtime, client gateway — around shim(BRB), no simulator
// anywhere. This file is flags, a greeting workload and the report it
// prints; what a node is made of, and in what order, is internal/deploy.
//
// All-in-one (default): four servers in one process on loopback, from the
// dev fixture — which round-trips the roster-file codec, so it is the
// identity code path a real deployment uses. Multi-process (-roster/-key):
// ONE server per process, its identity from a dagroster-generated roster
// file plus its key file; it listens on its roster address, submits one
// broadcast, and exits once it has delivered every member's
// (`make roster-demo`). README.md walks through the other flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"blockdag/internal/crypto"
	"blockdag/internal/deploy"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/roster"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/tcpnet"
	"blockdag/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tcp:", err)
		os.Exit(1)
	}
}

// runOpts is the flags: the node settings both modes share, and the
// workload's own.
type runOpts struct {
	node            deploy.Config // all but Identity, ListenAddr, OnIndication, State
	state           bool
	timeout, linger time.Duration
}

func run() error {
	var (
		opts       runOpts
		rosterPath = flag.String("roster", "", "roster file: run ONE server per process from identity files (requires -key)")
		keyPath    = flag.String("key", "", "this server's key file (with -roster)")
		listenAddr = flag.String("listen", "", "with -roster: bind address override (default: this server's roster address)")
		fsyncMode  = flag.String("fsync", "interval", "store fsync policy: always | interval | never")
	)
	cfg := &opts.node
	flag.DurationVar(&opts.timeout, "timeout", 10*time.Second, "how long to wait for all broadcasts to deliver")
	flag.StringVar(&cfg.StoreDir, "store-dir", "", "journal blocks under this directory, restore on startup, bulk-sync what is missing from the peers and keep following them")
	flag.IntVar(&cfg.MempoolCapacity, "mempool", 0, "ingestion mempool capacity: requests deduplicate, validate, and hit backpressure before block inclusion (0 = the pool's default)")
	flag.BoolVar(&opts.state, "state", false, "with -store-dir: maintain a Merkle state commitment over delivered broadcasts; seal, sign, journal, and serve it on the snapshot tier, and prune journaled history behind it")
	flag.BoolVar(&cfg.SnapshotJoin, "snapshot-join", false, "with -roster and -state: a server whose store is empty installs a roster-certified snapshot from its peers (the third catch-up tier)")
	flag.StringVar(&cfg.GatewayAddr, "gateway", "", "serve the client gateway (HTTP API + /metrics) on this address; all-in-one mode binds it to s0")
	flag.StringVar(&cfg.GatewayToken, "gateway-token", "", "with -gateway: require this bearer token on the client API (/metrics stays open)")
	flag.DurationVar(&opts.linger, "linger", 0, "keep serving this long after the workload completes (lets gateway clients drive the cluster)")
	flag.Parse()

	var err error
	if cfg.Fsync, err = store.ParseSyncPolicy(*fsyncMode); err != nil {
		return err
	}
	switch {
	case cfg.GatewayToken != "" && cfg.GatewayAddr == "":
		return fmt.Errorf("-gateway-token needs -gateway")
	case opts.state && cfg.StoreDir == "":
		return fmt.Errorf("-state needs -store-dir (the sealed commitment journals through the store)")
	case cfg.SnapshotJoin && !opts.state:
		return fmt.Errorf("-snapshot-join needs -state")
	case cfg.SnapshotJoin && *rosterPath == "":
		return fmt.Errorf("-snapshot-join needs -roster (a wiped node joins a running cluster)")
	case (*rosterPath == "") != (*keyPath == ""):
		return fmt.Errorf("-roster and -key go together")
	}
	if *rosterPath != "" {
		return runOne(*rosterPath, *keyPath, *listenAddr, opts)
	}
	return runAllInOne(opts)
}

// server is one running identity: its assembly and its delivery log.
type server struct {
	*deploy.Assembly
	id types.ServerID
	// machine (with -state) is the Merkle-committed view of the delivered
	// broadcasts, one entry per label. Loop-goroutine only.
	machine *state.Machine

	mu        sync.Mutex
	delivered map[types.Label]string
}

// listen fills in what is per server — identity, bind address, the
// delivery log as indication sink — and runs the node's Listen phase. The
// signature tally goes onto the identity's roster, whence the gateway's
// crypto_* scrape families.
func listen(file *roster.File, key roster.Key, addr string, opts runOpts) (*server, error) {
	identity, err := file.Identity(key, &crypto.Counters{})
	if err != nil {
		return nil, err
	}
	s := &server{id: identity.ID(), delivered: make(map[types.Label]string)}
	cfg := opts.node
	cfg.Identity, cfg.ListenAddr, cfg.Protocol = identity, addr, brb.Protocol{}
	if opts.state {
		s.machine = state.NewMachine()
		cfg.State = s.machine
	}
	cfg.OnIndication = func(label types.Label, value []byte) {
		s.mu.Lock()
		s.delivered[label] = string(value)
		s.mu.Unlock()
		if s.machine != nil {
			// Mirror the delivery into the committed state. BRB has no
			// slots, so the slot is the number of distinct labels: correct
			// servers deliver the same (label, value) set, so at quiescence
			// all seal the same (slot, root) — certifiable by joiners.
			s.machine.Tree().Put([]byte(label), value)
			s.machine.AdvanceTo(uint64(s.machine.Tree().Len()))
		}
	}
	if s.Assembly, err = deploy.Listen(cfg); err != nil {
		return nil, err
	}
	if s.Store != nil {
		if rep := s.Store.Report(); rep.Blocks > 0 || rep.TornBytes > 0 {
			fmt.Printf("s%d store: recovered %d blocks (torn tail: %d bytes)\n", s.id, rep.Blocks, rep.TornBytes)
		}
	}
	fmt.Printf("s%d listening on %s (authenticated)\n", s.id, s.Addr())
	return s, nil
}

// boot runs the node's Boot phase and reports what it did.
func (s *server) boot(addrOf func(types.ServerID) string) error {
	if err := s.Boot(addrOf); err != nil {
		return err
	}
	if j := s.Joined; j != nil {
		fmt.Printf("s%d snapshot join: installed certified state at slot %d root %x from s%d (%d chunks, %d base stand-ins)\n",
			s.id, j.Head.State.Slot, j.Head.State.Root[:8], j.Anchor, len(j.Head.State.Chunks), len(j.Head.Base))
	}
	if rep := s.Node.CatchUpReport(); rep.Ran && (rep.Blocks > 0 || rep.Err != nil) {
		fmt.Printf("s%d catch-up: %d blocks in bulk (err: %v)\n", s.id, rep.Blocks, rep.Err)
	}
	if h := s.sealed(); h != nil {
		// Broadcasts settled in the restored (or snapshot-installed) state
		// count as delivered: their history may be pruned away, so no
		// indication will ever replay them. The machine is the loop's by
		// now; the head it was restored from is being served.
		tree, err := state.Import(h.State.Root, h.State.Chunks)
		if err != nil {
			return err
		}
		s.mu.Lock()
		tree.Walk(func(e state.Entry) {
			if _, ok := s.delivered[types.Label(e.Key)]; !ok {
				s.delivered[types.Label(e.Key)] = string(e.Value)
			}
		})
		s.mu.Unlock()
	}
	if s.Gateway != nil {
		fmt.Printf("s%d gateway on http://%s (/metrics open)\n", s.id, s.Gateway.Addr())
	}
	return nil
}

// sealed is the store's head — the snapshot the node serves — once it holds
// a state checkpoint; nil without -state or before the first seal.
func (s *server) sealed() *store.Head {
	if s.machine == nil || s.Store.Head().State == nil {
		return nil
	}
	return s.Store.Head()
}

func (s *server) deliveredCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.delivered)
}

// awaitDeliveries polls until every server has delivered want distinct
// labels; false if timeout passes first.
func awaitDeliveries(servers []*server, want int, timeout time.Duration) bool {
	for deadline := time.Now().Add(timeout); ; time.Sleep(10 * time.Millisecond) {
		done := true
		for _, s := range servers {
			done = done && s.deliveredCount() >= want
		}
		if done || time.Now().After(deadline) {
			return done
		}
	}
}

// report prints the mempool's counters and — with a store — the
// follower's, with -state the state cycle's.
func (s *server) report() {
	if rep := s.Node.FollowReport(); rep.State != "" {
		fmt.Printf("s%d follow: %d polls, %d deltas, %d blocks pulled, %d throttled (sync calls: %d out / %d served)\n",
			s.id, rep.Polls, rep.Deltas, rep.Blocks, rep.Throttled, s.Transport.Counts().Get(tcpnet.CallsOpened), s.Transport.Counts().Get(tcpnet.CallsServed))
	}
	ms := s.Node.Server().Mempool().Stats()
	fmt.Printf("s%d mempool: %d submitted, %d accepted, %d drained into blocks (%d dup, %d invalid, %d overflow)\n",
		s.id, ms.Submitted, ms.Accepted, ms.Drained, ms.Duplicates, ms.Invalid, ms.Overflow)
	if h := s.sealed(); h != nil {
		var maxSeq uint64
		for _, seq := range h.Horizon {
			maxSeq = max(maxSeq, seq)
		}
		fmt.Printf("s%d state: sealed slot %d root %x (%d chunks; pruned below seq %d on %d chains)\n",
			s.id, h.State.Slot, h.State.Root[:8], len(h.State.Chunks), maxSeq, len(h.Base))
	}
}

// runOne is the multi-process mode: one server, identity from files.
func runOne(rosterPath, keyPath, addr string, opts runOpts) error {
	file, err := roster.Load(rosterPath)
	if err != nil {
		return err
	}
	key, err := roster.LoadKey(keyPath)
	if err != nil {
		return err
	}
	s, err := listen(file, key, addr, opts)
	if err != nil {
		return err
	}
	defer s.Close()
	if err := s.boot(file.Addr); err != nil {
		return err
	}

	// The workload: every member broadcasts one greeting; we are done when
	// all n greetings delivered here. A rejoining node whose own greeting
	// already settled in the restored state does not rebroadcast it — the
	// label's BRB instance completed cluster-wide long ago.
	label := types.Label(fmt.Sprintf("greet/s%d", s.id))
	s.mu.Lock()
	_, already := s.delivered[label]
	s.mu.Unlock()
	if already {
		fmt.Printf("s%d: own broadcast already settled in the restored state\n", s.id)
	} else if err := s.Node.Submit(label, []byte(fmt.Sprintf("hello from s%d", s.id))); err != nil {
		return fmt.Errorf("s%d submit: %w", s.id, err)
	}
	if !awaitDeliveries([]*server{s}, file.N(), opts.timeout) {
		return fmt.Errorf("s%d delivered %d/%d broadcasts within %v (peer rejections: %d, auth failures: %d)",
			s.id, s.deliveredCount(), file.N(), opts.timeout, s.Transport.Counts().Get(tcpnet.Rejections), s.Transport.Counts().Get(tcpnet.AuthFailures))
	}
	// Keep serving past our own finish line: a straggler (a late joiner
	// whose broadcast is still mid-flow) may need our final blocks, or a
	// follow pull from our store. -linger extends the window so gateway
	// clients can keep driving the cluster.
	time.Sleep(max(time.Second, opts.linger))
	if err := s.Node.Err(); err != nil {
		return fmt.Errorf("node unhealthy: %w", err)
	}
	s.report()
	s.mu.Lock()
	defer s.mu.Unlock()
	fmt.Printf("s%d delivered all %d broadcasts:\n", s.id, file.N())
	for label, value := range s.delivered {
		fmt.Printf("  %s=%s\n", label, value)
	}
	return nil
}

// runAllInOne is the smoke-test mode: the whole cluster in one process,
// identities from the dev fixture, every connection still mutually
// authenticated.
func runAllInOne(opts runOpts) error {
	const n = 4
	fx, err := roster.Dev(n)
	if err != nil {
		return err
	}
	// Every listener binds (on an ephemeral port) before any node boots: a
	// booting node's catch-up finds every peer's sync handler up.
	servers := make([]*server, n)
	for i := range servers {
		o := opts
		if opts.node.StoreDir != "" {
			o.node.StoreDir = filepath.Join(opts.node.StoreDir, fmt.Sprintf("s%d", i))
		}
		if i != 0 {
			// One process, one client plane: -gateway binds to s0 only.
			o.node.GatewayAddr, o.node.GatewayToken = "", ""
		}
		if servers[i], err = listen(fx.File, fx.Keys[i], "127.0.0.1:0", o); err != nil {
			return err
		}
		defer servers[i].Close()
	}
	for _, s := range servers {
		if err := s.boot(func(id types.ServerID) string { return servers[id].Addr() }); err != nil {
			return err
		}
	}

	// The workload: two broadcasts submitted at different servers, through
	// the mempool's admission verdict.
	if err := servers[0].Node.Submit("greeting", []byte("hello over TCP")); err != nil {
		return fmt.Errorf("s0 submit: %w", err)
	}
	if err := servers[2].Node.Submit("number", []byte("42")); err != nil {
		return fmt.Errorf("s2 submit: %w", err)
	}
	if !awaitDeliveries(servers, 2, opts.timeout) {
		return fmt.Errorf("broadcasts not delivered within %v", opts.timeout)
	}
	if opts.linger > 0 {
		fmt.Printf("\nworkload done; lingering %v for gateway clients\n", opts.linger)
		time.Sleep(opts.linger)
	}

	fmt.Println("\ndeliveries over real TCP:")
	for _, s := range servers {
		s.mu.Lock()
		fmt.Printf("  s%d: %v\n", s.id, s.delivered)
		s.mu.Unlock()
	}
	for _, s := range servers {
		if err := s.Node.Err(); err != nil {
			return fmt.Errorf("node unhealthy: %w", err)
		}
		s.report()
	}
	fmt.Println("\nall four servers delivered both broadcasts; every connection was mutually authenticated")
	return nil
}
