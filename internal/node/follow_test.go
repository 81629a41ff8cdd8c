package node_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/gossip"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// steppedNode builds a node that is never started: server, transport and
// clock all ride net, and the test steps the turns itself — the shell the
// cluster simulator uses, without the cluster.
func steppedNode(t *testing.T, net *simnet.Network, roster *crypto.Roster, signer *crypto.Signer, ccfg core.Config, ncfg node.Config) *node.Node {
	t.Helper()
	ccfg.Roster, ccfg.Signer, ccfg.Protocol = roster, signer, brb.Protocol{}
	ccfg.Transport, ccfg.Clock = net.Transport(signer.ID()), net.Now
	srv, err := core.NewServer(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	ncfg.Server = srv
	nd, err := node.New(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	return nd
}

// extendChain appends n sealed blocks to signer's chain in st, on top of
// parent (nil starts the chain), and returns the new tip.
func extendChain(t *testing.T, st *store.Store, signer *crypto.Signer, parent *block.Block, n int) *block.Block {
	t.Helper()
	for i := 0; i < n; i++ {
		b := block.New(signer.ID(), 0, nil, nil)
		if parent != nil {
			b = block.New(signer.ID(), parent.Seq+1, []block.Ref{parent.Ref()}, nil)
		}
		if err := b.Seal(signer); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
		parent = b
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	return parent
}

// emptyStore opens a fresh store, closed at cleanup: a node with a store
// follows.
func emptyStore(t *testing.T, roster *crypto.Roster) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// journaledChain journals a chainLen-block chain of signer's into a fresh
// store and reopens it, as a restarting peer finds its disk: the reopened
// store, closed at cleanup, and the chain's tip.
func journaledChain(t *testing.T, roster *crypto.Roster, signer *crypto.Signer, chainLen int) (*store.Store, *block.Block) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	tip := extendChain(t, st, signer, nil, chainLen)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(dir, store.Options{Roster: roster}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st, tip
}

// callless is a transport that sends nowhere and fails every call at once,
// as a socket does that nobody listens on: a started durable node's first
// poll over it fails, and the node goes on.
type callless types.ServerID

func (c callless) Self() types.ServerID                         { return types.ServerID(c) }
func (callless) Send(types.ServerID, transport.Channel, []byte) {}
func (callless) Call(_ types.ServerID, _ transport.Channel, _ []byte, sink transport.CallSink) func() {
	go sink.OnDone(transport.ErrUnreachable)
	return func() {}
}

// firstPoll waits for a started durable node's first poll to settle and
// returns its outcome.
func firstPoll(t *testing.T, nd *node.Node) node.FirstPoll {
	t.Helper()
	waitFor(t, 20*time.Second, "the first poll to settle", func() bool {
		return nd.FollowReport().First.Outcome != node.FirstPending
	})
	return nd.FollowReport().First
}

// startedPeer restores a node runtime for signer over st and starts it,
// which registers it on st: a syncsvc.Server{Store: st} streams from its
// DAG, as a deployed peer's does. It builds no block of its own.
func startedPeer(t *testing.T, roster *crypto.Roster, signer *crypto.Signer, st *store.Store) *node.Node {
	t.Helper()
	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signer, Protocol: brb.Protocol{},
		Transport: callless(signer.ID()), Clock: node.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{Server: srv, Store: st, DisseminateEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	return nd
}

// asGossip is blocks as gossip messages from a peer.
func asGossip(from types.ServerID, blocks []*block.Block) []gossip.Message {
	msgs := make([]gossip.Message, len(blocks))
	for i, b := range blocks {
		msgs[i] = gossip.Message{From: from, Payload: gossip.EncodeBlockMsg(b)}
	}
	return msgs
}

// TestNodeLiveFollower: a node with no gossip link to its peer at all
// converges on the peer's history through the follower alone — a poll once
// no peer's block has arrived for ResendAfter plus a block period on the
// server's clock and not before, delta pull, absorption into the live
// server — with every pulled block journaled and the node's own watermark
// vector advancing. The runtime is stepped on the simulator's clock: no
// goroutine, no sleep, no retry deadline.
func TestNodeLiveFollower(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	goroutines := runtime.NumGoroutine()

	// The peer: a runtime restored from a store with history, serving the
	// sync channel from its DAG (nothing gossips toward the follower — the
	// lag never heals by itself). Stepped, it is registered on its store by
	// its owner, the test.
	const chainLen, extra = 4, 5
	peerStore, tip := journaledChain(t, roster, signers[0], chainLen)
	peer := steppedNode(t, net, roster, signers[0], core.Config{}, node.Config{Store: peerStore})
	peerStore.SetRuntime(peer)
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{Store: peerStore, Clock: net.Now})

	myDir := t.TempDir()
	myStore, err := store.Open(myDir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = myStore.Close() }()
	nd := steppedNode(t, net, roster, signers[1], core.Config{}, node.Config{Store: myStore})

	// Nothing arrives: no pull one millisecond short of ResendAfter plus a
	// block period (the default 50 ms) of silence; one at it.
	quiet := gossip.ResendAfter + 50*time.Millisecond
	runFor(net, quiet-time.Millisecond)
	nd.Tick()
	if rep := nd.FollowReport(); rep.Polls != 0 {
		t.Fatalf("before the silence rule: %+v", rep)
	}
	runFor(net, time.Millisecond)
	nd.Tick()
	if rep := nd.FollowReport(); rep.Polls != 1 || rep.State != node.FollowPulling {
		t.Fatalf("at the silence rule: %+v", rep)
	}
	// A second turn while the first poll is in flight stacks nothing.
	nd.FollowPoll()
	net.Run()
	if rep := nd.FollowReport(); rep.Polls != 1 || rep.Deltas != 1 || rep.Blocks != chainLen || rep.Errors != 0 {
		t.Fatalf("first poll: %+v, want one delta of %d blocks", rep, chainLen)
	}

	// The peer's history grows; only the sync channel can tell.
	peer.DeliverBurst(asGossip(1, sealChain(t, signers[0], tip, extra)))
	runFor(net, gossip.ResendAfter)
	nd.Tick()
	net.Run()
	// In sync now: a forced poll costs a query and pulls nothing.
	nd.FollowPoll()
	net.Run()
	rep := nd.FollowReport()
	if rep.Polls != 3 || rep.Deltas != 2 || rep.Blocks != chainLen+extra || rep.Errors != 0 {
		t.Fatalf("follow report %+v, want 3 polls, 2 deltas, %d blocks", rep, chainLen+extra)
	}
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	// Signature batches verify on short-lived worker goroutines, which can
	// outlive their WaitGroup by a moment: what must hold is that nothing
	// stays behind.
	waitFor(t, 2*time.Second, "the goroutine count to return to its baseline (a stepped runtime starts none)", func() bool {
		return runtime.NumGoroutine() <= goroutines
	})

	// The live server absorbed the suffix...
	if got := len(nd.Server().DAG().ByBuilder(0)); got != chainLen+extra {
		t.Fatalf("follower holds %d of the peer's blocks, want %d", got, chainLen+extra)
	}
	// ...the vector advertises it...
	found := false
	for _, wm := range nd.Watermarks() {
		if wm.Builder == 0 && wm.NextSeq == chainLen+extra {
			found = true
		}
	}
	if !found {
		t.Fatalf("vector %v does not advertise builder 0 at %d", nd.Watermarks(), chainLen+extra)
	}
	// ...and every pulled block was journaled: a reopen replays them.
	nd.Stop()
	if err := myStore.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.Open(myDir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	count := 0
	for _, b := range reopened.Blocks() {
		if b.Builder == 0 {
			count++
		}
	}
	if count != chainLen+extra {
		t.Fatalf("journal replays %d peer blocks, want %d", count, chainLen+extra)
	}
}

// TestNodeFollowerStopDropsLateCompletion: Stop makes a stepped node
// inert — the post hook drops what comes home afterwards.
func TestNodeFollowerStopDropsLateCompletion(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	peerStore, _ := journaledChain(t, roster, signers[0], 3)
	peerStore.SetRuntime(steppedNode(t, net, roster, signers[0], core.Config{}, node.Config{Store: peerStore}))
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{Store: peerStore, Clock: net.Now})
	nd := steppedNode(t, net, roster, signers[1], core.Config{}, node.Config{Store: emptyStore(t, roster)})

	// The poll goes out, the node stops (the simulator's crash), and the
	// answer arrives at a dead runtime: nothing may touch the server.
	nd.FollowPoll()
	nd.Stop()
	net.Run()
	if rep := nd.FollowReport(); rep.Polls != 1 || rep.Deltas != 0 || rep.Blocks != 0 {
		t.Fatalf("stopped node acted on a late completion: %+v", rep)
	}
	if got := nd.Server().DAG().Len(); got != 0 {
		t.Fatalf("stopped node absorbed %d blocks", got)
	}
	if err := nd.Start(); err == nil {
		t.Fatal("Start after Stop succeeded")
	}
}

// TestNodeLiveFollowerStarted covers the other shell: on a started node
// the follower pulls in the loop goroutine — its first poll, then in Tick
// on inbound silence while a request waits, the peer gossiping nothing — and
// completions come
// home through its channel, over real TCP: the first poll brings the
// peer's chain, a later one what the peer appended afterwards.
func TestNodeLiveFollowerStarted(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	const chainLen, extra = 4, 5
	peerStore, tip := journaledChain(t, roster, signers[0], chainLen)
	peer := startedPeer(t, roster, signers[0], peerStore)
	listen := func(self types.ServerID, handlers map[transport.Channel]transport.Handler) *tcpnet.Transport {
		tr, err := tcpnet.Listen(tcpnet.Config{
			Self: self, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, self),
			Endpoints: map[transport.Channel]transport.Endpoint{transport.ChanGossip: &transport.LateBound{}},
			Handlers:  handlers,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tr.Close() })
		return tr
	}
	peerTr := listen(0, map[transport.Channel]transport.Handler{transport.ChanSync: &syncsvc.Server{Store: peerStore}})
	myTr := listen(1, nil)
	if err := myTr.Connect(0, peerTr.Addr()); err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signers[1], Protocol: brb.Protocol{},
		Transport: myTr, Clock: node.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{
		Server: srv,
		Store:  emptyStore(t, roster),
		CatchUp: &syncsvc.FetchConfig{
			Transport: myTr, Roster: roster, Peers: []types.ServerID{0}, Timeout: 10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	if first := firstPoll(t, nd); first.Outcome != node.FirstCaughtUp || first.Blocks != chainLen {
		t.Fatalf("first poll = %+v, want %d blocks", first, chainLen)
	}
	for _, msg := range asGossip(1, sealChain(t, signers[0], tip, extra)) {
		peer.Deliver(msg.From, msg.Payload)
	}
	// Silence counts only while the node has a reason to build: a request
	// each wait gives it one.
	requests := 0
	waitFor(t, 15*time.Second, "the follower to pull the appended suffix", func() bool {
		requests++
		if err := nd.Submit(types.Label(fmt.Sprintf("ℓ/%d", requests)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		return nd.FollowReport().Blocks >= extra
	})
	nd.Stop()
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	if got := len(srv.DAG().ByBuilder(0)); got != chainLen+extra {
		t.Fatalf("follower holds %d of the peer's blocks, want %d", got, chainLen+extra)
	}
}

// stalling is a sync peer that holds every call open for hold and then
// answers that the caller lacks nothing, remembering when each call came
// and how many were ever open at once.
type stalling struct {
	net      *simnet.Network
	hold     time.Duration
	calls    []time.Duration
	open     int
	mostOpen int
}

func (s *stalling) ServeCall(_ types.ServerID, _ []byte, st transport.ServerStream) {
	s.calls = append(s.calls, s.net.Now())
	s.open++
	s.mostOpen = max(s.mostOpen, s.open)
	s.net.After(s.hold, func() {
		s.open--
		_ = st.Send(syncsvc.EncodeDoneFrame(0))
		st.Close(nil)
	})
}

// TestStalledBlockPullsAtMostOncePerResend: the follower pulls on gossip's
// evidence of lag and at no other time. A stepped durable node ticks every
// 10 ms on the simulator's clock while builder 2's chain arrives a block
// every 50 ms: no pull. Then a block of builder 0's arrives whose parent
// nobody serves — FWD goes unanswered and the sync peers, which hold every
// call open longer than ResendAfter, answer that the node lacks nothing.
// The first pull goes out at the block's first re-ask; after that never
// two in flight, and never two less than ResendAfter apart. The parent
// then arrives, builder 2 falls silent and the peers answer at once:
// inbound silence is the evidence now, and ResendAfter alone spaces the
// pulls.
func TestStalledBlockPullsAtMostOncePerResend(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	sync := &stalling{net: net, hold: gossip.ResendAfter + 50*time.Millisecond}
	net.RegisterHandler(0, transport.ChanSync, sync)
	net.RegisterHandler(2, transport.ChanSync, sync)
	counts := &metrics.Metrics{}
	nd := steppedNode(t, net, roster, signers[1], core.Config{Metrics: counts}, node.Config{Store: emptyStore(t, roster)})
	fwds := func() int64 { return counts.Get(metrics.FwdRequestsSent) }

	const tick = 10 * time.Millisecond
	live := sealChain(t, signers[2], nil, 200)
	var polls []time.Duration // when each pull went out
	step := func(feed bool) {
		if feed && net.Now()%(5*tick) == 0 {
			nd.DeliverBurst(asGossip(2, live[:1]))
			live = live[1:]
		}
		before := nd.FollowReport().Polls
		nd.Tick()
		if nd.FollowReport().Polls > before {
			polls = append(polls, net.Now())
		}
		runFor(net, tick)
	}
	bounded := func(phase string, from int) {
		t.Helper()
		for i := from + 1; i < len(polls); i++ {
			if gap := polls[i] - polls[i-1]; gap < gossip.ResendAfter {
				t.Fatalf("%s: pulls at %v and %v, %v apart: more than one a ResendAfter", phase, polls[i-1], polls[i], gap)
			}
		}
		if sync.mostOpen > 1 {
			t.Fatalf("%s: %d pulls in flight at once", phase, sync.mostOpen)
		}
	}

	// Healthy: blocks arrive, none waits.
	for range 100 {
		step(true)
	}
	if len(polls) != 0 || fwds() != 0 {
		t.Fatalf("a healthy node pulled %d times and sent %d FWD requests", len(polls), fwds())
	}

	// Stalled: the first pull is the first re-ask's.
	stalled := sealChain(t, signers[0], nil, 2)
	nd.DeliverBurst(asGossip(0, stalled[1:]))
	if fwds() != 1 {
		t.Fatalf("the buffered block sent %d FWD requests, want 1", fwds())
	}
	for i := 0; len(polls) == 0; i++ {
		if i == 100 {
			t.Fatal("a block stalled for 1 s pulled nothing")
		}
		asked := fwds()
		step(true)
		if reasked := fwds() > asked; reasked != (len(polls) == 1) {
			t.Fatalf("at %v: re-asked %v, pulled %d times", net.Now(), reasked, len(polls))
		}
	}
	for range 200 {
		step(true)
	}
	if len(polls) < 3 {
		t.Fatalf("a block stalled for 2 s pulled %d times", len(polls))
	}
	bounded("stalled", 0)

	// Silent: the gap fills, nothing arrives any more.
	heard := net.Now()
	nd.DeliverBurst(asGossip(0, stalled[:1]))
	if n := counts.Get(metrics.PendingBlocks); n != 0 {
		t.Fatalf("%d blocks still buffered", n)
	}
	silentFrom := len(polls)
	sync.hold = time.Millisecond // only ResendAfter spaces the pulls now
	for range 200 {
		step(false)
	}
	if len(polls)-silentFrom < 8 {
		t.Fatalf("2 s of silence pulled %d times", len(polls)-silentFrom)
	}
	if first := polls[silentFrom]; first < heard+gossip.ResendAfter+50*time.Millisecond {
		t.Fatalf("silence pulled at %v, the last block arrived at %v", first, heard)
	}
	bounded("silent", silentFrom-1)
	if got := len(sync.calls); got != len(polls) {
		t.Fatalf("the peers saw %d calls for %d pulls", got, len(polls))
	}
}

// runFor steps net until virtual time d from now: a marker event at the
// horizon stops the run, after every event already due by then.
func runFor(net *simnet.Network, d time.Duration) {
	done := false
	net.After(d, func() { done = true })
	for !done && net.Step() {
	}
}
