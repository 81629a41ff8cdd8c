package node

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/gossip"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// fullTestNode is server 0 of a four-member roster, whose tick never fires:
// every block it builds is one an early seal or an answer sealed. Until it
// has built one it does not know its own chain's tip, so it is not idle.
func fullTestNode(t *testing.T) (*Node, *metrics.Metrics) {
	nd, m, _, _ := fullTestNodeOn(t, 4, Clock())
	return nd, m
}

// fullTestNodeOn is fullTestNode in a roster of size members on the given
// clock; it also returns the roster's signers, to seal peers' blocks with,
// and the network its transport is on.
func fullTestNodeOn(t *testing.T, size int, clock func() time.Duration) (*Node, *metrics.Metrics, []*crypto.Signer, *simnet.Network) {
	t.Helper()
	members, signers, err := crypto.LocalRoster(size)
	if err != nil {
		t.Fatal(err)
	}
	m, net := &metrics.Metrics{}, simnet.New()
	srv, err := core.NewServer(core.Config{
		Roster: members, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: net.Transport(0), Clock: clock, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{Server: srv, DisseminateEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	return nd, m, signers, net
}

// sixteenths is how many sixteenths of fullBlockBytes make a full block.
const sixteenths = 16

// sixteenth is the i-th request tagged tag, of a sixteenth of fullBlockBytes
// of payload (128 B): sixteen of them make a full block, at every n.
func sixteenth(tag string, i int) (types.Label, []byte) {
	label := types.Label(fmt.Sprintf("%s/%04d", tag, i))
	return label, make([]byte, fullBlockBytes/sixteenths-len(label))
}

func submitSixteenths(t *testing.T, nd *Node, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := nd.Submit(sixteenth("full", i)); err != nil {
			t.Fatal(err)
		}
	}
}

// wantOneFullBlock checks that m counted one block, sealed full, carrying a
// full block's sixteen requests.
func wantOneFullBlock(t *testing.T, m *metrics.Metrics) {
	t.Helper()
	if built, full, embedded := m.Get(metrics.BlocksBuilt), m.Get(metrics.BlocksSealedFull), m.Get(metrics.RequestsEmbedded); built != 1 || full != 1 || embedded != sixteenths {
		t.Fatalf("built %d blocks (%d sealed full) embedding %d requests, want 1 (1) embedding %d", built, full, embedded, sixteenths)
	}
}

// TestFullBlockSealsBeforeTheTick: a stepped node whose pool holds one
// request less than a full block seals nothing through the full-block turn;
// with the request that fills it, it seals one own block carrying every
// pending request. So does a pool holding block.MaxRequests requests of a
// few bytes each, below a full block's payload.
func TestFullBlockSealsBeforeTheTick(t *testing.T) {
	if fullBlockBytes != 2048 {
		t.Fatalf("a block is full at %d B, want 2048", fullBlockBytes)
	}
	nd, m := fullTestNode(t)
	submitSixteenths(t, nd, 0, sixteenths-1)
	if nd.DisseminateEarly() || m.Get(metrics.BlocksBuilt) != 0 {
		t.Fatalf("sealed with %d B pending, below a full block", nd.Server().Mempool().Bytes())
	}
	submitSixteenths(t, nd, sixteenths-1, sixteenths)
	if !nd.DisseminateEarly() {
		t.Fatal("a full block was not sealed")
	}
	wantOneFullBlock(t, m)
	if nd.DisseminateEarly() || nd.Server().Mempool().Len() != 0 {
		t.Fatal("the turn sealed again from an empty pool")
	}

	nd, m = fullTestNode(t)
	for i, rq := range countFull() {
		if err := nd.Submit(rq.Label, rq.Data); err != nil {
			t.Fatal(err)
		}
		if sealed := nd.DisseminateEarly(); sealed != (i == block.MaxRequests-1) {
			t.Fatalf("with %d of %d requests pending, sealed = %v", i+1, block.MaxRequests, sealed)
		}
	}
	if embedded := m.Get(metrics.RequestsEmbedded); embedded != block.MaxRequests {
		t.Fatalf("the count-full block embedded %d requests, want %d", embedded, block.MaxRequests)
	}
}

// TestFullIsTheSameAtEveryN: a block is full at fullBlockBytes of payload
// whatever the roster's size. At n = 4, 7 and 16 a pool one byte short of it
// seals nothing; the one-byte request that fills it seals a block.
func TestFullIsTheSameAtEveryN(t *testing.T) {
	for _, size := range []int{4, 7, 16} {
		nd, m, _, _ := fullTestNodeOn(t, size, Clock())
		submitSixteenths(t, nd, 0, sixteenths-1)
		label := types.Label("short")
		if err := nd.Submit(label, make([]byte, fullBlockBytes/sixteenths-1-len(label))); err != nil {
			t.Fatal(err)
		}
		if pending := nd.Server().Mempool().Bytes(); pending != fullBlockBytes-1 || nd.DisseminateEarly() {
			t.Fatalf("n = %d: %d B pending sealed a block, or is not one byte short of %d", size, pending, fullBlockBytes)
		}
		if err := nd.Submit("z", nil); err != nil {
			t.Fatal(err)
		}
		if !nd.DisseminateEarly() || m.Get(metrics.BlocksSealedFull) != 1 {
			t.Fatalf("n = %d: %d B pending sealed no block", size, fullBlockBytes)
		}
	}
}

// TestStartedNodeSealsAFullBlock: on a started node the request that fills
// the block wakes the loop, which seals it — the tick is an hour away.
func TestStartedNodeSealsAFullBlock(t *testing.T) {
	nd, m := fullTestNode(t)
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	submitSixteenths(t, nd, 0, sixteenths)
	for deadline := time.Now().Add(10 * time.Second); m.Get(metrics.BlocksBuilt) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no block sealed within 10s of the pool holding a full block")
		}
	}
	nd.Stop()
	wantOneFullBlock(t, m)
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFullBlockFloodCoalesces: a flood submitted while the loop is busy in
// another turn leaves one wake token, not one per request. Released, the
// loop seals a block per iteration for as long as the pool holds a full one:
// every request is embedded, in as few blocks as block.MaxRequests allows —
// far fewer than the pending bytes over the threshold.
func TestFullBlockFloodCoalesces(t *testing.T) {
	const flood = 600
	nd, m := fullTestNode(t)
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	nd.post(func() {
		close(entered)
		<-release
	})
	<-entered
	submitSixteenths(t, nd, 0, flood)
	pending := nd.Server().Mempool().Bytes()
	close(release)
	for deadline := time.Now().Add(10 * time.Second); m.Get(metrics.RequestsEmbedded) < flood; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests embedded after 10s", m.Get(metrics.RequestsEmbedded), flood)
		}
	}
	nd.Stop()
	built, full := m.Get(metrics.BlocksBuilt), m.Get(metrics.BlocksSealedFull)
	if bound := int64(pending / fullBlockBytes); built != full || full > bound {
		t.Fatalf("%d blocks (%d sealed full) for %d B pending, want at most %d, all full", built, full, pending, bound)
	}
	if batches := int64((flood + block.MaxRequests - 1) / block.MaxRequests); full != batches {
		t.Fatalf("the flood went out in %d blocks, want %d of at most MaxRequests requests", full, batches)
	}
}

// TestSubmitAllocsBelowAFullBlock: the wake every admitted request leaves
// costs Submit nothing — as many allocations as the server's own Submit.
func TestSubmitAllocsBelowAFullBlock(t *testing.T) {
	const runs = 64
	labels := make([]types.Label, runs+1) // AllocsPerRun warms up with one more
	for i := range labels {
		labels[i] = types.Label(fmt.Sprintf("a/%03d", i))
	}
	data := []byte{1}
	measure := func(submit func(types.Label, []byte) error) float64 {
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if err := submit(labels[next], data); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	nd, _ := fullTestNode(t)
	twin, _ := fullTestNode(t)
	viaNode, viaServer := measure(nd.Submit), measure(twin.Server().Submit)
	if nd.poolFull() {
		t.Fatal("the pool filled: the measurement is not below the threshold")
	}
	if viaNode > viaServer {
		t.Fatalf("Node.Submit allocates %.1f a request, the server's Submit %.1f", viaNode, viaServer)
	}
}

// countFull is block.MaxRequests requests of four bytes each: a block full
// by its request count, its payload half a full block's.
func countFull() []block.Request {
	reqs := make([]block.Request, block.MaxRequests)
	for i := range reqs {
		reqs[i] = block.Request{Label: types.Label(fmt.Sprintf("c%02x", i)), Data: []byte{1}}
	}
	return reqs
}

// sixteenthsOf is k requests tagged tag of a sixteenth of fullBlockBytes of
// payload each.
func sixteenthsOf(tag string, k int) []block.Request {
	reqs := make([]block.Request, k)
	for i := range reqs {
		label, data := sixteenth(tag, i)
		reqs[i] = block.Request{Label: label, Data: data}
	}
	return reqs
}

// peerBlock seals signer's block after parent (genesis when nil) carrying
// reqs, as a gossip message from its builder.
func peerBlock(t *testing.T, signer *crypto.Signer, parent *block.Block, reqs []block.Request) (*block.Block, []gossip.Message) {
	t.Helper()
	b := block.New(signer.ID(), 0, nil, reqs)
	if parent != nil {
		b = block.New(signer.ID(), parent.Seq+1, []block.Ref{parent.Ref()}, reqs)
	}
	if err := b.Seal(signer); err != nil {
		t.Fatal(err)
	}
	return b, []gossip.Message{{From: signer.ID(), Payload: gossip.EncodeBlockMsg(b)}}
}

// wantAnswers checks that m counted answers, and that every block built
// beyond the full seals is one.
func wantAnswers(t *testing.T, m *metrics.Metrics, answers int64, why string) {
	t.Helper()
	built := m.Get(metrics.BlocksBuilt) - m.Get(metrics.BlocksSealedFull)
	if got := m.Get(metrics.BlocksAnswered); built != answers || got != answers {
		t.Fatalf("%s: built %d blocks beyond full seals (%d answered), want %d answers", why, built, got, answers)
	}
}

// citesHead reports whether nd's own chain head cites every one of refs.
func citesHead(nd *Node, refs ...block.Ref) bool {
	d := nd.Server().DAG()
	head, _ := d.HeadRef(nd.Server().ID())
	own, _ := d.Get(head)
	for _, ref := range refs {
		if own == nil || !slices.Contains(own.Preds, ref) {
			return false
		}
	}
	return true
}

// peerChains seals the peers' blocks, each after its builder's last one,
// every request uniquely labeled.
type peerChains struct {
	t       *testing.T
	signers []*crypto.Signer
	last    map[int]*block.Block
	tags    int
}

func newPeerChains(t *testing.T, signers []*crypto.Signer) *peerChains {
	return &peerChains{t: t, signers: signers, last: make(map[int]*block.Block)}
}

// next is peer's next block as a gossip message, full or carrying one
// request of a sixteenth of a full block.
func (c *peerChains) next(peer int, full bool) (*block.Block, []gossip.Message) {
	k := 1
	if full {
		k = sixteenths
	}
	c.tags++
	b, msgs := peerBlock(c.t, c.signers[peer], c.last[peer], sixteenthsOf(fmt.Sprintf("p%d", c.tags), k))
	c.last[peer] = b
	return b, msgs
}

// burst is the next block of each of peers, the first full when full is
// set, as one burst of gossip messages, and their references.
func (c *peerChains) burst(full bool, peers ...int) ([]block.Ref, []gossip.Message) {
	var refs []block.Ref
	var msgs []gossip.Message
	for i, peer := range peers {
		b, m := c.next(peer, full && i == 0)
		refs, msgs = append(refs, b.Ref()), append(msgs, m...)
	}
	return refs, msgs
}

// sealOwnFull fills nd's pool with a block full by block.MaxRequests
// requests, whatever the roster's size, and seals it: the node is under
// load for a period.
func sealOwnFull(t *testing.T, nd *Node, tag string) {
	t.Helper()
	for _, rq := range countFull() {
		if err := nd.Submit(types.Label(tag)+"/"+rq.Label, rq.Data); err != nil {
			t.Fatal(err)
		}
	}
	if !nd.DisseminateEarly() {
		t.Fatal("the pool's full block was not sealed")
	}
}

// TestPeersFullBlockIsAnswered: a peer's full block puts a stepped node
// under load, but one builder's block is short of the quorum, n − f − 1 = 2
// other builders at n = 4, and is not answered. The burst that inserts a
// second builder's block is, citing both; so is a burst that inserts a full
// block and a second builder's block at once. A block full by
// block.MaxRequests requests loads the node as one full by payload does;
// one request short, it does not.
func TestPeersFullBlockIsAnswered(t *testing.T) {
	var now time.Duration
	nd, m, signers, _ := fullTestNodeOn(t, 4, func() time.Duration { return now })
	peers := newPeerChains(t, signers)
	full, msgs := peers.burst(true, 1)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 0, "a peer's full block alone")
	small, msgs := peers.burst(false, 2)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 1, "a second builder's block after a full one")
	if !citesHead(nd, append(full, small...)...) {
		t.Fatal("the answer does not cite the quorum's blocks")
	}

	now = time.Minute
	both, msgs := peers.burst(true, 3, 1)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 2, "a full block and a second builder's block in one burst")
	if !citesHead(nd, both...) {
		t.Fatal("the second answer does not cite the quorum's blocks")
	}

	nd, m, signers, _ = fullTestNodeOn(t, 4, func() time.Duration { return 0 })
	reqs := countFull()
	_, msgs = peerBlock(t, signers[1], nil, reqs[:block.MaxRequests-1])
	_, other := peerBlock(t, signers[2], nil, nil)
	nd.DeliverBurst(append(msgs, other...))
	wantAnswers(t, m, 0, "a quorum with a block one request short of MaxRequests")
	_, msgs = peerBlock(t, signers[3], nil, reqs)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 1, "a quorum with a block of MaxRequests requests")
}

// TestAnswerWaitsForAQuorum: under load, a node answers once blocks of
// n − f − 1 other builders were inserted since its own last block — a
// quorum, n − f, counting itself — and not while one builder is missing,
// however many blocks the others send: 2 of 3 peers at n = 4, 4 of 6 at
// n = 7.
func TestAnswerWaitsForAQuorum(t *testing.T) {
	for _, size := range []int{4, 7} {
		nd, m, signers, _ := fullTestNodeOn(t, size, func() time.Duration { return 0 })
		sealOwnFull(t, nd, "own")
		peers := newPeerChains(t, signers)
		quorum := size - (size-1)/3 - 1
		for peer := 1; peer < quorum; peer++ {
			for range 2 {
				_, msgs := peers.burst(false, peer)
				nd.DeliverBurst(msgs)
			}
			wantAnswers(t, m, 0, fmt.Sprintf("n = %d: blocks of %d builders", size, peer))
		}
		last, msgs := peers.burst(false, quorum)
		nd.DeliverBurst(msgs)
		wantAnswers(t, m, 1, fmt.Sprintf("n = %d: blocks of %d builders", size, quorum))
		if !citesHead(nd, last...) {
			t.Fatalf("n = %d: the answer does not cite the block that completed the quorum", size)
		}
	}
}

// TestEveryOwnBlockResetsTheQuorum: the builders counted toward a quorum are
// those whose blocks arrived since the node's own last block, whichever turn
// sealed it — its tick, a full seal or an answer. A builder heard before
// that block does not complete a quorum after it.
func TestEveryOwnBlockResetsTheQuorum(t *testing.T) {
	nd, m, signers, _ := fullTestNodeOn(t, 4, func() time.Duration { return 0 })
	peers := newPeerChains(t, signers)
	deliver := func(peer int) {
		_, msgs := peers.burst(false, peer)
		nd.DeliverBurst(msgs)
	}
	answered := func(want int64, why string) {
		t.Helper()
		if got := m.Get(metrics.BlocksAnswered); got != want {
			t.Fatalf("%s: %d answers, want %d", why, got, want)
		}
	}
	sealOwnFull(t, nd, "a")
	deliver(1)
	nd.Disseminate() // the tick
	deliver(2)
	answered(0, "builder 1 before the tick, builder 2 after it")
	deliver(1)
	answered(1, "builders 2 and 1 after the tick")
	deliver(3)
	answered(1, "builder 3 after the answer")
	sealOwnFull(t, nd, "b")
	deliver(1)
	answered(1, "builder 3 before a full seal, builder 1 after it")
	deliver(2)
	answered(2, "builders 1 and 2 after the full seal")
	if built := m.Get(metrics.BlocksBuilt); built != 5 {
		t.Fatalf("built %d blocks, want 5: two full seals, a tick and two answers", built)
	}
}

// TestOnlyInsertedPeersFullBlocksAreAnswered: an own full block delivered
// back to the node, a peer's block one request short of full and a peer's
// full block buffered for its missing parent answer nothing: the own block
// neither loads the node nor counts toward the quorum, the short block
// counts but does not load it, and the buffered block does neither. The
// burst that delivers the buffered block's parent, and so inserts it, counts
// its builder and loads the node: it is answered.
func TestOnlyInsertedPeersFullBlocksAreAnswered(t *testing.T) {
	nd, m, signers, _ := fullTestNodeOn(t, 4, func() time.Duration { return 0 })
	own, msgs := peerBlock(t, signers[0], nil, sixteenthsOf("s0", sixteenths))
	nd.DeliverBurst(msgs)
	short, msgs := peerBlock(t, signers[1], nil, sixteenthsOf("s1", sixteenths-1))
	nd.DeliverBurst(msgs)
	parent, _ := peerBlock(t, signers[2], nil, nil)
	buffered, msgs := peerBlock(t, signers[2], parent, sixteenthsOf("s2", sixteenths))
	nd.DeliverBurst(msgs)
	d := nd.Server().DAG()
	if !d.Contains(own.Ref()) || !d.Contains(short.Ref()) || d.Contains(buffered.Ref()) {
		t.Fatal("want the own and the short block inserted, the orphan buffered")
	}
	wantAnswers(t, m, 0, "an own, a short and a buffered full block")

	_, msgs = peerBlock(t, signers[2], nil, nil)
	nd.DeliverBurst(msgs)
	if !d.Contains(buffered.Ref()) {
		t.Fatal("the parent did not insert the buffered block")
	}
	wantAnswers(t, m, 1, "the burst that inserted the buffered full block")
	if !citesHead(nd, short.Ref(), buffered.Ref()) {
		t.Fatal("the answer does not cite the quorum's blocks")
	}
}

// streaming is a sync peer that streams a fixed block list, whatever it is
// asked, and ends the stream clean.
type streaming []*block.Block

func (s streaming) ServeCall(_ types.ServerID, _ []byte, st transport.ServerStream) {
	_ = st.Send(syncsvc.EncodeBatchFrame(s))
	_ = st.Send(syncsvc.EncodeDoneFrame(uint64(len(s))))
	st.Close(nil)
}

// pullAll pulls every one of blocks into nd from peer 1, to settlement.
func pullAll(t *testing.T, nd *Node, net *simnet.Network, blocks ...*block.Block) {
	t.Helper()
	net.RegisterHandler(1, transport.ChanSync, streaming(blocks))
	absorbed := -1
	nd.PullFrom(1, func(_ uint64, n int, _ error) { absorbed = n })
	net.Run()
	if absorbed != len(blocks) {
		t.Fatalf("the pull absorbed %d blocks, want %d", absorbed, len(blocks))
	}
}

// TestPulledBlocksNeverCount: a block a pull absorbs is no delivery. Under
// load, pulled blocks of two builders — a quorum with the block of a third
// delivered after — are not counted toward the quorum; and a pulled full
// block does not load a node, whose delivered quorum then goes unanswered.
// Delivered, the same builders' next blocks are counted, and answered.
func TestPulledBlocksNeverCount(t *testing.T) {
	nd, m, signers, net := fullTestNodeOn(t, 4, func() time.Duration { return 0 })
	peers := newPeerChains(t, signers)
	sealOwnFull(t, nd, "own")
	b1, _ := peers.next(1, false)
	b2, _ := peers.next(2, false)
	pullAll(t, nd, net, b1, b2)
	_, msgs := peers.burst(false, 3)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 0, "builders 1 and 2 pulled, builder 3 delivered")
	_, msgs = peers.burst(false, 1)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 1, "builders 3 and 1 delivered")

	nd, m, signers, net = fullTestNodeOn(t, 4, func() time.Duration { return 0 })
	peers = newPeerChains(t, signers)
	full, _ := peers.next(1, true)
	pullAll(t, nd, net, full)
	_, msgs = peers.burst(false, 2, 3)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 0, "a pulled full block, a delivered quorum")
	_, msgs = peers.burst(true, 1)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 1, "a delivered full block")
}

// TestLoadEndsAPeriodAfterTheLastFullBlock: for a period after a peer's full
// block, or after sealing a full block of its own, a node answers a quorum
// of any blocks, citing them; from a period after that full block on it
// answers none, though the window would allow one.
func TestLoadEndsAPeriodAfterTheLastFullBlock(t *testing.T) {
	const period = time.Hour
	var now time.Duration
	nd, m, signers, _ := fullTestNodeOn(t, 4, func() time.Duration { return now })
	peers := newPeerChains(t, signers)
	_, msgs := peers.burst(true, 1, 2)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 1, "a peer's full block in a quorum")

	now = period - 1
	small, msgs := peers.burst(false, 2, 3)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 2, "a quorum within a period of a full block")
	if !citesHead(nd, small...) {
		t.Fatal("the answer does not cite the quorum it answers")
	}
	now = period + period/2
	_, msgs = peers.burst(false, 3, 1)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 2, "a quorum a period and a half after the full block")

	now = 3 * period
	sealOwnFull(t, nd, "own")
	now = 4*period - 1
	_, msgs = peers.burst(false, 2, 3)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 3, "a quorum within a period of an own full block")
	now = 4*period + period/2
	_, msgs = peers.burst(false, 1, 2)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 3, "a quorum a period and a half after an own full block")
}

// TestNoLoadNoAnswer: a node that has neither sealed nor inserted a full
// block answers no quorum, whenever it completes.
func TestNoLoadNoAnswer(t *testing.T) {
	var now time.Duration
	nd, m, signers, _ := fullTestNodeOn(t, 4, func() time.Duration { return now })
	peers := newPeerChains(t, signers)
	for i := range 12 {
		_, msgs := peers.next(1+i%3, false)
		nd.DeliverBurst(msgs)
		now += time.Hour / 5
	}
	wantAnswers(t, m, 0, "quorums of blocks short of full, with no load")
}

// TestAnswersAreTwoAPeriod: bursts at random times a few minutes of an
// hour's period apart, each inserting a full block of a random peer and a
// block of another beside it: a quorum, under load, every time. The node
// answers, but never more than twice in any period; and since every burst
// could be answered, it answers two a period exactly.
func TestAnswersAreTwoAPeriod(t *testing.T) {
	const (
		period = time.Hour
		bursts = 400
	)
	var now time.Duration
	nd, m, signers, _ := fullTestNodeOn(t, 4, func() time.Duration { return now })
	peers := newPeerChains(t, signers)
	rng := rand.New(rand.NewSource(1))
	var answers []time.Duration
	for range bursts {
		full := 1 + rng.Intn(3)
		_, msgs := peers.burst(true, full, 1+(full+rng.Intn(2))%3)
		built := m.Get(metrics.BlocksBuilt)
		nd.DeliverBurst(msgs)
		if m.Get(metrics.BlocksBuilt) > built {
			answers = append(answers, now)
		}
		now += time.Duration(1+rng.Intn(8)) * time.Minute
	}
	for i := 2; i < len(answers); i++ {
		if answers[i]-answers[i-2] < period {
			t.Fatalf("answers at %v, %v and %v: three within a period", answers[i-2], answers[i-1], answers[i])
		}
	}
	if periods := int(now / period); len(answers) < 2*periods {
		t.Fatalf("%d answers over %d periods of quorums, want two a period", len(answers), periods)
	}
	wantAnswers(t, m, int64(len(answers)), "a quorum in every burst")
}

// TestBackToBackQuorumsAreAnswered: only the window spaces answers. Under
// load, a quorum completed right after an answer is answered too, and a
// third within the period is not; a period after the first answer, the
// quorum the window held back is answered by the burst that renews the load.
func TestBackToBackQuorumsAreAnswered(t *testing.T) {
	const period = time.Hour
	var now time.Duration
	nd, m, signers, _ := fullTestNodeOn(t, 4, func() time.Duration { return now })
	peers := newPeerChains(t, signers)
	sealOwnFull(t, nd, "own")
	now++
	_, msgs := peers.burst(false, 1, 2)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 1, "a quorum under load")
	now++
	second, msgs := peers.burst(false, 2, 3)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 2, "a quorum right after an answer")
	if !citesHead(nd, second...) {
		t.Fatal("the second answer does not cite its quorum")
	}
	now++
	_, msgs = peers.burst(false, 3, 1)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 2, "a third quorum within the period")
	now = period + 1
	_, msgs = peers.burst(true, 2)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 3, "a full block a period after the first answer")
}

// TestStartedNodeAnswersAFullBlock: a started node's loop answers a peer's
// full block as it delivers it beside a second builder's block — the tick is
// an hour away — while Submit and the loop's timers run beside it.
func TestStartedNodeAnswersAFullBlock(t *testing.T) {
	nd, m, signers, _ := fullTestNodeOn(t, 4, Clock())
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	submitSixteenths(t, nd, 0, sixteenths/2)
	_, msgs := peerBlock(t, signers[1], nil, sixteenthsOf("s1", sixteenths))
	_, other := peerBlock(t, signers[2], nil, nil)
	for _, msg := range append(msgs, other...) {
		nd.Deliver(msg.From, msg.Payload)
	}
	for deadline := time.Now().Add(10 * time.Second); m.Get(metrics.BlocksAnswered) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no answer within 10s of a peer's full block and a second builder's block")
		}
	}
	nd.Stop()
	wantAnswers(t, m, 1, "a started node")
	if embedded := m.Get(metrics.RequestsEmbedded); embedded != sixteenths/2 {
		t.Fatalf("the answer embedded %d requests, want the %d pending", embedded, sixteenths/2)
	}
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
}
