package node

import (
	"fmt"
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
	"blockdag/internal/types"
)

// fullTestNode is server 0 of a four-member roster, whose tick never fires:
// every block it builds is one the full-block trigger sealed.
func fullTestNode(t *testing.T) (*Node, *metrics.Metrics) {
	nd, m, _ := fullTestNodeOn(t, Clock())
	return nd, m
}

// fullTestNodeOn is fullTestNode on the given clock; it also returns the
// roster's signers, to seal peers' blocks with.
func fullTestNodeOn(t *testing.T, clock func() time.Duration) (*Node, *metrics.Metrics, []*crypto.Signer) {
	t.Helper()
	members, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	m := &metrics.Metrics{}
	srv, err := core.NewServer(core.Config{
		Roster: members, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: simnet.New().Transport(0), Clock: clock, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{Server: srv, DisseminateEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	return nd, m, signers
}

// sixteenth is the i-th request tagged tag, of 240 B of payload, a block's
// fixed bytes at n = 4: sixteen of them make a full block.
func sixteenth(tag string, i int) (types.Label, []byte) {
	label := types.Label(fmt.Sprintf("%s/%04d", tag, i))
	return label, make([]byte, blockFixedBytes(4)-len(label))
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
	if built, full, embedded := m.Get(metrics.BlocksBuilt), m.Get(metrics.BlocksSealedFull), m.Get(metrics.RequestsEmbedded); built != 1 || full != 1 || embedded != fullBlockRatio {
		t.Fatalf("built %d blocks (%d sealed full) embedding %d requests, want 1 (1) embedding %d", built, full, embedded, fullBlockRatio)
	}
}

// TestFullBlockSealsBeforeTheTick: a stepped node whose pool holds one
// request less than a full block seals nothing through the full-block turn;
// with the request that fills it, it seals one own block carrying every
// pending request. So does a pool holding block.MaxRequests requests of a
// few bytes each, below a full block's payload.
func TestFullBlockSealsBeforeTheTick(t *testing.T) {
	if got := fullBlockRatio * blockFixedBytes(4); got != 3840 {
		t.Fatalf("a block is full at %d B at n = 4, want 3840", got)
	}
	nd, m := fullTestNode(t)
	submitSixteenths(t, nd, 0, fullBlockRatio-1)
	if nd.DisseminateIfFull() || m.Get(metrics.BlocksBuilt) != 0 {
		t.Fatalf("sealed with %d B pending, below a full block", nd.Server().Mempool().Bytes())
	}
	submitSixteenths(t, nd, fullBlockRatio-1, fullBlockRatio)
	if !nd.DisseminateIfFull() {
		t.Fatal("a full block was not sealed")
	}
	wantOneFullBlock(t, m)
	if nd.DisseminateIfFull() || nd.Server().Mempool().Len() != 0 {
		t.Fatal("the turn sealed again from an empty pool")
	}

	nd, m = fullTestNode(t)
	for i, rq := range countFull() {
		if err := nd.Submit(rq.Label, rq.Data); err != nil {
			t.Fatal(err)
		}
		if sealed := nd.DisseminateIfFull(); sealed != (i == block.MaxRequests-1) {
			t.Fatalf("with %d of %d requests pending, sealed = %v", i+1, block.MaxRequests, sealed)
		}
	}
	if embedded := m.Get(metrics.RequestsEmbedded); embedded != block.MaxRequests {
		t.Fatalf("the count-full block embedded %d requests, want %d", embedded, block.MaxRequests)
	}
}

// TestStartedNodeSealsAFullBlock: on a started node the request that fills
// the block wakes the loop, which seals it — the tick is an hour away.
func TestStartedNodeSealsAFullBlock(t *testing.T) {
	nd, m := fullTestNode(t)
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	submitSixteenths(t, nd, 0, fullBlockRatio)
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
	if bound := int64(pending / (fullBlockRatio * blockFixedBytes(4))); built != full || full > bound {
		t.Fatalf("%d blocks (%d sealed full) for %d B pending, want at most %d, all full", built, full, pending, bound)
	}
	if batches := int64((flood + block.MaxRequests - 1) / block.MaxRequests); full != batches {
		t.Fatalf("the flood went out in %d blocks, want %d of at most MaxRequests requests", full, batches)
	}
}

// TestSubmitAllocsBelowAFullBlock: below the threshold the wake costs
// Submit nothing — as many allocations as the server's own Submit.
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

// countFull is block.MaxRequests requests of a few bytes each: a block full
// by its request count, its payload far below a full block's.
func countFull() []block.Request {
	reqs := make([]block.Request, block.MaxRequests)
	for i := range reqs {
		reqs[i] = block.Request{Label: types.Label(fmt.Sprintf("count/%d", i)), Data: []byte{1}}
	}
	return reqs
}

// sixteenths is k requests tagged tag of 240 B of payload each.
func sixteenths(tag string, k int) []block.Request {
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

// wantAnswers checks that m counted answered own blocks, and every block
// built is one.
func wantAnswers(t *testing.T, m *metrics.Metrics, answered int64, why string) {
	t.Helper()
	if built, got := m.Get(metrics.BlocksBuilt), m.Get(metrics.BlocksAnswered); built != answered || got != answered {
		t.Fatalf("%s: built %d blocks (%d answered), want %d (%d)", why, built, got, answered, answered)
	}
}

// citesHead reports whether nd's own chain head cites ref.
func citesHead(nd *Node, ref block.Ref) bool {
	d := nd.Server().DAG()
	head, _ := d.HeadRef(nd.Server().ID())
	own, _ := d.Get(head)
	return own != nil && slices.Contains(own.Preds, ref)
}

// TestPeersFullBlockIsAnswered: a stepped node answers a peer's full block
// with an own block in the delivery turn that inserts it, citing it — by
// payload, and by block.MaxRequests requests. Answers are half a period
// apart: a second full block within half a period of an answer is not
// answered, one half a period after it is, and a third inside that half
// period is not, so a node answers at most twice a period.
func TestPeersFullBlockIsAnswered(t *testing.T) {
	const half = time.Hour / 2 // fullTestNode's DisseminateEvery, halved
	var now time.Duration
	nd, m, signers := fullTestNodeOn(t, func() time.Duration { return now })
	full1, msgs := peerBlock(t, signers[1], nil, sixteenths("s1", fullBlockRatio))
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 1, "a peer's full block")
	if !citesHead(nd, full1.Ref()) {
		t.Fatal("the answer does not cite the full block")
	}

	now += half - 1
	_, msgs = peerBlock(t, signers[2], nil, sixteenths("s2", fullBlockRatio))
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 1, "a second full block within half a period")

	now++
	full3, msgs := peerBlock(t, signers[3], nil, sixteenths("s3", fullBlockRatio))
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 2, "a full block half a period after the answer")
	if !citesHead(nd, full3.Ref()) {
		t.Fatal("the second answer does not cite its full block")
	}

	now += half - 1
	_, msgs = peerBlock(t, signers[1], full1, sixteenths("s1b", fullBlockRatio))
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 2, "a third full block within the period")

	nd, m, signers = fullTestNodeOn(t, func() time.Duration { return 0 })
	reqs := countFull()
	_, msgs = peerBlock(t, signers[1], nil, reqs[:block.MaxRequests-1])
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 0, "a peer's block one request short of MaxRequests")
	_, msgs = peerBlock(t, signers[2], nil, reqs)
	nd.DeliverBurst(msgs)
	wantAnswers(t, m, 1, "a peer's block of MaxRequests requests")
}

// TestOnlyInsertedPeersFullBlocksAreAnswered: an own full block, a peer's
// block one request short of full and a peer's full block buffered for its
// missing parent build nothing. The buffered block is answered in the burst
// that delivers its parent and so inserts it.
func TestOnlyInsertedPeersFullBlocksAreAnswered(t *testing.T) {
	nd, m, signers := fullTestNodeOn(t, func() time.Duration { return 0 })
	own, msgs := peerBlock(t, signers[0], nil, sixteenths("s0", fullBlockRatio))
	nd.DeliverBurst(msgs)
	short, msgs := peerBlock(t, signers[1], nil, sixteenths("s1", fullBlockRatio-1))
	nd.DeliverBurst(msgs)
	parent, _ := peerBlock(t, signers[2], nil, nil)
	buffered, msgs := peerBlock(t, signers[2], parent, sixteenths("s2", fullBlockRatio))
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
}

// TestStartedNodeAnswersAFullBlock: a started node's loop answers a peer's
// full block as it delivers it — the tick is an hour away — while Submit
// and the loop's timers run beside it.
func TestStartedNodeAnswersAFullBlock(t *testing.T) {
	nd, m, signers := fullTestNodeOn(t, Clock())
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	submitSixteenths(t, nd, 0, fullBlockRatio/2)
	_, msgs := peerBlock(t, signers[1], nil, sixteenths("s1", fullBlockRatio))
	nd.Deliver(msgs[0].From, msgs[0].Payload)
	for deadline := time.Now().Add(10 * time.Second); m.Get(metrics.BlocksAnswered) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no answer within 10s of a peer's full block")
		}
	}
	nd.Stop()
	wantAnswers(t, m, 1, "a started node")
	if embedded := m.Get(metrics.RequestsEmbedded); embedded != fullBlockRatio/2 {
		t.Fatalf("the answer embedded %d requests, want the %d pending", embedded, fullBlockRatio/2)
	}
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
}
