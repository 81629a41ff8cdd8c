package gossip

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/metrics"
	"blockdag/internal/peerscore"
	"blockdag/internal/simnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// queueSource is a simple RequestSource for tests.
type queueSource struct {
	reqs []block.Request
}

func (q *queueSource) Next(max int) []block.Request {
	if len(q.reqs) <= max {
		out := q.reqs
		q.reqs = nil
		return out
	}
	out := q.reqs[:max]
	q.reqs = append([]block.Request(nil), q.reqs[max:]...)
	return out
}

func (q *queueSource) Requeue(reqs []block.Request) {
	q.reqs = append(append([]block.Request(nil), reqs...), q.reqs...)
}

// newGossip is New for a test of gossip alone: the request source and the
// insert hook the test does not bring are the empty queue and the no-op.
func newGossip(tb testing.TB, cfg Config) *Gossip {
	tb.Helper()
	if cfg.Requests == nil {
		cfg.Requests = &queueSource{}
	}
	if cfg.OnInsert == nil {
		cfg.OnInsert = func(*block.Block) error { return nil }
	}
	g, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// missingRefs counts, by scanning, the references some buffered block waits
// for that are not buffered themselves, and fails the test if the counts
// gossip keeps as it goes — outstanding, and held per builder — say otherwise.
func missingRefs(tb testing.TB, g *Gossip) (n int) {
	tb.Helper()
	for p, ws := range g.waiters {
		if len(ws) == 0 {
			tb.Fatalf("waiters[%v] is empty", p)
		}
		if g.pending[p] == nil {
			n++
		}
	}
	if g.outstanding != n {
		tb.Fatalf("outstanding = %d, the buffers say %d", g.outstanding, n)
	}
	held := make([]int, len(g.held))
	for _, e := range g.pending {
		held[e.blk.Builder]++
	}
	if !slices.Equal(held, g.held) {
		tb.Fatalf("held = %v, the buffer says %v", g.held, held)
	}
	return n
}

// testNode bundles one server's gossip instance with its plumbing.
type testNode struct {
	g       *Gossip
	d       *dag.DAG
	m       *metrics.Metrics
	src     *queueSource
	metrics *metrics.Metrics
}

// Deliver implements transport.Endpoint.
func (n *testNode) Deliver(from types.ServerID, payload []byte) {
	n.g.HandleMessage(from, payload)
}

// cluster spins up n gossip nodes on a simnet.
type cluster struct {
	t       *testing.T
	net     *simnet.Network
	roster  *crypto.Roster
	signers []*crypto.Signer
	nodes   []*testNode
}

func newCluster(t *testing.T, n int, opts ...simnet.Option) *cluster {
	t.Helper()
	roster, signers, err := crypto.LocalRoster(n)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(append([]simnet.Option{simnet.WithSeed(99)}, opts...)...)
	c := &cluster{t: t, net: net, roster: roster, signers: signers}
	for i := 0; i < n; i++ {
		d := dag.New(roster)
		m := &metrics.Metrics{}
		src := &queueSource{}
		g := newGossip(t, Config{
			Signer:    signers[i],
			Roster:    roster,
			DAG:       d,
			Requests:  src,
			Transport: net.Transport(types.ServerID(i)),
			Clock:     net.Now,
			Metrics:   m,

			OnEvidence: discardEvidence,
		})
		node := &testNode{g: g, d: d, m: m, src: src, metrics: m}
		c.nodes = append(c.nodes, node)
		net.Register(types.ServerID(i), transport.ChanGossip, node)
	}
	return c
}

// disseminateRounds has every node disseminate `rounds` times, spaced by
// interval, with FWD ticks every interval/2, then runs to quiescence.
func (c *cluster) disseminateRounds(rounds int, interval time.Duration) {
	for r := 0; r < rounds; r++ {
		at := time.Duration(r+1) * interval
		for _, n := range c.nodes {
			node := n
			c.net.After(at, func() {
				if _, err := node.g.Disseminate(); err != nil {
					c.t.Errorf("disseminate: %v", err)
				}
			})
		}
	}
	// Schedule FWD retry ticks throughout and past the dissemination
	// window so drops are always recovered.
	for i := 1; i <= (rounds+4)*4; i++ {
		at := time.Duration(i) * interval / 2
		for _, n := range c.nodes {
			node := n
			c.net.After(at, func() { node.g.Tick() })
		}
	}
	c.net.Run()
}

// assertConverged checks Lemma 3.7 at quiescence: every pair of DAGs is
// mutually ⩽, i.e. all correct servers hold the same joint block DAG.
func (c *cluster) assertConverged(correct ...int) {
	c.t.Helper()
	if len(correct) == 0 {
		for i := range c.nodes {
			correct = append(correct, i)
		}
	}
	base := c.nodes[correct[0]].d
	for _, i := range correct[1:] {
		d := c.nodes[i].d
		if d.Len() != base.Len() || !base.Leq(d) || !d.Leq(base) {
			c.t.Fatalf("DAGs of servers %d and %d differ: %d vs %d blocks",
				correct[0], i, base.Len(), d.Len())
		}
	}
}

// TestConvergence is the Lemma 3.6/3.7 happy path: all-to-all gossip with
// jittered latency converges to a joint block DAG.
func TestConvergence(t *testing.T) {
	c := newCluster(t, 4)
	c.disseminateRounds(5, 50*time.Millisecond)
	c.assertConverged()
	want := 4 * 5
	if got := c.nodes[0].d.Len(); got != want {
		t.Fatalf("joint DAG has %d blocks, want %d", got, want)
	}
	if eqs := dagtest.Forked(c.nodes[0].d); len(eqs) != 0 {
		t.Fatalf("unexpected equivocations: %v", eqs)
	}
}

// TestConvergenceUnderDrops: 30% of unicasts vanish during five rounds.
// Blocks lost on their initial push are recovered by FWD pulls once later
// blocks reference them — which requires dissemination to continue, the
// paper's standing assumption ("every correct server will regularly
// request disseminate()"). Two healed tail rounds stand in for "forever".
func TestConvergenceUnderDrops(t *testing.T) {
	c := newCluster(t, 4, simnet.WithDrop(0.3))
	c.disseminateRounds(5, 50*time.Millisecond)
	c.net.SetDrop(0)
	c.disseminateRounds(2, 50*time.Millisecond)
	c.assertConverged()
	if got := c.nodes[0].d.Len(); got != 28 {
		t.Fatalf("DAG has %d blocks, want 28", got)
	}
	var fwds int64
	for _, n := range c.nodes {
		fwds += n.m.Get(metrics.FwdRequestsSent)
	}
	if fwds == 0 {
		t.Fatal("no FWD requests under 30% drop; recovery path untested")
	}
}

// TestRequestsTravel: requests buffered at one server appear in its next
// block and reach every DAG.
func TestRequestsTravel(t *testing.T) {
	c := newCluster(t, 4)
	c.nodes[2].src.reqs = []block.Request{
		{Label: "pay/1", Data: []byte("tx")},
	}
	c.disseminateRounds(2, 50*time.Millisecond)
	c.assertConverged()
	for i, n := range c.nodes {
		found := false
		for _, b := range n.d.Blocks() {
			for _, rq := range b.Requests {
				if rq.Label == "pay/1" && string(rq.Data) == "tx" && b.Builder == 2 {
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("server %d's DAG lacks the embedded request", i)
		}
	}
	if got := c.nodes[2].m.Get(metrics.RequestsEmbedded); got != 1 {
		t.Fatalf("RequestsEmbedded = %d", got)
	}
}

// TestMaxRequestsSplitsRequests: more requests than block.MaxRequests spill
// into the following block.
func TestMaxRequestsSplitsRequests(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	d := dag.New(roster)
	src := &queueSource{}
	for i := 0; i < block.MaxRequests+1; i++ {
		src.reqs = append(src.reqs, block.Request{Label: types.Label(fmt.Sprintf("l%d", i))})
	}
	g := newGossip(t, Config{
		Signer: signers[0], Roster: roster, DAG: d, Requests: src,
		Transport: net.Transport(0), Clock: net.Now,
		OnEvidence: discardEvidence,
	})
	b1, err := g.Disseminate()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := g.Disseminate()
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Requests) != block.MaxRequests || len(b2.Requests) != 1 {
		t.Fatalf("batch sizes = %d,%d want %d,1", len(b1.Requests), len(b2.Requests), block.MaxRequests)
	}
}

// TestChainStructure: a server's own blocks form a linear chain: seq i
// block's first pred is seq i-1 block (Algorithm 1 line 18).
func TestChainStructure(t *testing.T) {
	c := newCluster(t, 3)
	c.disseminateRounds(4, 50*time.Millisecond)
	for id := 0; id < 3; id++ {
		chain := c.nodes[0].d.ByBuilder(types.ServerID(id))
		if len(chain) != 4 {
			t.Fatalf("server %d chain has %d blocks", id, len(chain))
		}
		for i := 1; i < len(chain); i++ {
			if len(chain[i].Preds) == 0 || chain[i].Preds[0] != chain[i-1].Ref() {
				t.Fatalf("server %d block %d does not lead with parent ref", id, i)
			}
		}
	}
}

// TestSelectiveSendRecoveredViaFwd: a byzantine server sends its block to
// a single correct server only. Once that server's next block references
// it, everyone else fetches it with FWD from the referencing server.
func TestSelectiveSendRecoveredViaFwd(t *testing.T) {
	c := newCluster(t, 4)
	// Server 3 acts byzantine: build a valid block but deliver it only
	// to server 0, bypassing Disseminate's broadcast.
	byz := block.New(3, 0, nil, []block.Request{{Label: "x", Data: []byte("partial")}})
	if err := byz.Seal(c.signers[3]); err != nil {
		t.Fatal(err)
	}
	c.net.After(time.Millisecond, func() {
		c.nodes[0].g.HandleMessage(3, EncodeBlockMsg(byz))
	})
	c.disseminateRounds(3, 50*time.Millisecond)
	for i := 0; i < 3; i++ {
		if !c.nodes[i].d.Contains(byz.Ref()) {
			t.Fatalf("correct server %d never obtained the selectively-sent block", i)
		}
	}
	c.assertConverged(0, 1, 2)
}

// TestFwdAsksTheSender: a block's missing predecessors are asked of the
// peer that handed the block over, not of its builder. Server 3 built b0 and
// b1 and cannot be reached; server 1 holds both and relays b1. Server 2 has
// b0 one round trip later, with no retry and no timer.
func TestFwdAsksTheSender(t *testing.T) {
	c := newCluster(t, 4)
	c.net.SetPartition(func(from, to types.ServerID) bool { return from == 3 || to == 3 })
	b0 := block.New(3, 0, nil, nil)
	if err := b0.Seal(c.signers[3]); err != nil {
		t.Fatal(err)
	}
	b1 := block.New(3, 1, []block.Ref{b0.Ref()}, nil)
	if err := b1.Seal(c.signers[3]); err != nil {
		t.Fatal(err)
	}
	c.nodes[1].g.HandleMessage(3, EncodeBlockMsg(b0))
	c.nodes[1].g.HandleMessage(3, EncodeBlockMsg(b1))
	c.nodes[2].g.HandleMessage(1, EncodeBlockMsg(b1))
	c.net.Run()
	if !c.nodes[2].d.Contains(b0.Ref()) || !c.nodes[2].d.Contains(b1.Ref()) {
		t.Fatal("the relayed block's predecessor did not arrive from the relay")
	}
	if at := c.net.Now(); at >= ResendAfter {
		t.Fatalf("recovered at %v: that is a retry, not one round trip", at)
	}
	if got := c.nodes[2].m.Get(metrics.FwdRequestsSent); got != 1 {
		t.Fatalf("%d FWD requests sent, want 1", got)
	}
}

// chainOf seals a chain of n blocks by one builder, each citing the one
// before.
func chainOf(t *testing.T, signer *crypto.Signer, n int) []*block.Block {
	t.Helper()
	chain := make([]*block.Block, n)
	for i := range chain {
		var preds []block.Ref
		if i > 0 {
			preds = []block.Ref{chain[i-1].Ref()}
		}
		chain[i] = block.New(signer.ID(), uint64(i), preds, nil)
		if err := chain[i].Seal(signer); err != nil {
			t.Fatal(err)
		}
	}
	return chain
}

// TestSilentEchoDoesNotKeepTheAsks: server 2 buffers b1 from server 1, which
// holds b0, and the first answer is lost. Server 3, which does not hold b0,
// echoes b1 before every tick. The echo earns it a turn, not the asks:
// server 1 is asked again and b0 arrives.
func TestSilentEchoDoesNotKeepTheAsks(t *testing.T) {
	c := newCluster(t, 4)
	chain := chainOf(t, c.signers[1], 2)
	c.nodes[1].g.HandleMessage(1, EncodeBlockMsg(chain[0]))
	c.nodes[1].g.HandleMessage(1, EncodeBlockMsg(chain[1]))
	c.net.SetPartition(func(from, to types.ServerID) bool { return from == 1 && to == 2 })
	c.nodes[2].g.HandleMessage(1, EncodeBlockMsg(chain[1]))
	c.net.Run()
	c.net.SetPartition(nil)
	if c.nodes[2].d.Contains(chain[0].Ref()) {
		t.Fatal("the first answer was to be lost")
	}
	for i := 0; i < 3 && !c.nodes[2].d.Contains(chain[1].Ref()); i++ {
		c.nodes[2].g.HandleMessage(3, EncodeBlockMsg(chain[1]))
		runFor(c.net, ResendAfter)
		c.nodes[2].g.Tick()
		c.net.Run()
	}
	if !c.nodes[2].d.Contains(chain[1].Ref()) {
		t.Fatalf("an echo kept every ask from the peer that holds the predecessor; b1 is asked of %v", c.nodes[2].g.pending[chain[1].Ref()].from)
	}
}

// TestBannedEchoIsNotAsked: a banned peer that echoes a buffered block is
// not counted among the peers to ask — every send to it dies at the gate, so
// its turns would be asks never made.
func TestBannedEchoIsNotAsked(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	log := &sendLog{Transport: net.Transport(0)}
	scores, m := peerscore.New(), &metrics.Metrics{}
	g := newGossip(t, Config{
		Signer: signers[0], Roster: roster, DAG: dag.New(roster), Metrics: m,
		Transport: log, Clock: net.Now, Scores: scores, OnEvidence: discardEvidence,
	})
	chain := chainOf(t, signers[1], 2)
	scores.Convict(dagtest.Proof(3))
	g.HandleMessage(1, EncodeBlockMsg(chain[1]))
	g.HandleMessage(3, EncodeBlockMsg(chain[1]))
	for i := 0; i < 4; i++ {
		runFor(net, ResendAfter)
		g.Tick()
	}
	if got := m.Get(metrics.FwdRequestsSent); got != 5 || log.fwds[1] != 5 {
		t.Fatalf("%d FWD requests made, %v sent; want 5, all to s1", got, log.fwds)
	}
}

// TestWithheldChainRecoveredFromACitingSender: byzantine server 3 builds b0
// and b1, hands both to server 0 and only b1 to server 1, and answers
// nothing. Server 1 has b1 buffered from a peer that will never supply b0;
// server 0's next block cites b1, so server 0 holds b1's ancestry and is
// asked for it (Lemma 3.6 with the first copy from a faulty server).
func TestWithheldChainRecoveredFromACitingSender(t *testing.T) {
	c := newCluster(t, 4)
	c.net.SetPartition(func(from, to types.ServerID) bool { return from == 3 || to == 3 })
	chain := chainOf(t, c.signers[3], 2)
	c.nodes[0].g.HandleMessage(3, EncodeBlockMsg(chain[0]))
	c.nodes[0].g.HandleMessage(3, EncodeBlockMsg(chain[1]))
	c.nodes[1].g.HandleMessage(3, EncodeBlockMsg(chain[1]))
	citing, err := c.nodes[0].g.Disseminate()
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run()
	for i := 0; i < 2; i++ {
		runFor(c.net, ResendAfter)
		c.nodes[1].g.Tick()
		c.net.Run()
	}
	if !c.nodes[1].d.Contains(citing.Ref()) {
		t.Fatalf("b1 is still asked of %v only: the sender of the block citing it was never asked for b0",
			c.nodes[1].g.pending[chain[1].Ref()].from)
	}
	if got := missingRefs(t, c.nodes[1].g); got != 0 || len(c.nodes[1].g.pending) != 0 {
		t.Fatalf("%d references outstanding, %d blocks buffered after recovery", got, len(c.nodes[1].g.pending))
	}
}

// TestBadSignatureRejected: a block with a corrupted signature never
// enters any DAG and is counted as rejected.
func TestBadSignatureRejected(t *testing.T) {
	c := newCluster(t, 2)
	b := block.New(1, 0, nil, nil)
	if err := b.Seal(c.signers[1]); err != nil {
		t.Fatal(err)
	}
	c.nodes[0].g.HandleMessage(1, corruptSig(b))
	c.net.Run()
	if c.nodes[0].d.Len() != 0 {
		t.Fatal("bad-signature block entered the DAG")
	}
	if got := c.nodes[0].m.Get(metrics.BlocksRejected); got != 1 {
		t.Fatalf("BlocksRejected = %d", got)
	}
}

// TestForgedBuilderRejected: server 1 signs a block claiming builder 0.
func TestForgedBuilderRejected(t *testing.T) {
	c := newCluster(t, 2)
	forged := block.New(0, 0, nil, nil)
	// Seal with the wrong signer by hand: the unsigned frame decodes to
	// the block's reference, which server 1 signs.
	unsigned, err := block.Decode(forged.Encode())
	if err != nil {
		t.Fatal(err)
	}
	ref := unsigned.Ref()
	forged.Sig = c.signers[1].Sign(ref[:])
	redecoded, err := block.Decode(forged.Encode())
	if err != nil {
		t.Fatal(err)
	}
	c.nodes[0].g.HandleMessage(1, EncodeBlockMsg(redecoded))
	if c.nodes[0].d.Len() != 0 {
		t.Fatal("forged block entered the DAG")
	}
}

// TestInvalidParentPoisonsDescendants: a structurally invalid block (two
// parents) is rejected, and a pending block referencing it is rejected
// with it instead of waiting forever.
func TestInvalidParentPoisonsDescendants(t *testing.T) {
	c := newCluster(t, 4)
	// Byzantine server 3 builds a fork pair and then an invalid "join"
	// block with two parents, plus a child referencing the join.
	g0 := block.New(3, 0, nil, nil)
	if err := g0.Seal(c.signers[3]); err != nil {
		t.Fatal(err)
	}
	forkA := block.New(3, 1, []block.Ref{g0.Ref()}, nil)
	if err := forkA.Seal(c.signers[3]); err != nil {
		t.Fatal(err)
	}
	forkB := block.New(3, 1, []block.Ref{g0.Ref()}, []block.Request{{Label: "x"}})
	if err := forkB.Seal(c.signers[3]); err != nil {
		t.Fatal(err)
	}
	join := block.New(3, 2, []block.Ref{forkA.Ref(), forkB.Ref()}, nil)
	if err := join.Seal(c.signers[3]); err != nil {
		t.Fatal(err)
	}
	child := block.New(3, 3, []block.Ref{join.Ref()}, nil)
	if err := child.Seal(c.signers[3]); err != nil {
		t.Fatal(err)
	}
	n0 := c.nodes[0]
	// Deliver child first (pends on join), then the rest.
	n0.g.HandleMessage(3, EncodeBlockMsg(child))
	n0.g.HandleMessage(3, EncodeBlockMsg(join))
	n0.g.HandleMessage(3, EncodeBlockMsg(forkA))
	n0.g.HandleMessage(3, EncodeBlockMsg(forkB))
	n0.g.HandleMessage(3, EncodeBlockMsg(g0))
	c.net.Run()
	if n0.d.Contains(join.Ref()) || n0.d.Contains(child.Ref()) {
		t.Fatal("invalid blocks entered the DAG")
	}
	if !n0.d.Contains(forkA.Ref()) || !n0.d.Contains(forkB.Ref()) {
		t.Fatal("valid fork blocks were rejected")
	}
	if len(n0.g.pending) != 0 {
		t.Fatalf("pending buffer leaks %d blocks", len(n0.g.pending))
	}
	if got := dagtest.Forked(n0.d); len(got) != 1 || got[0] != 3 {
		t.Fatalf("forked chains = %v", got)
	}
}

// TestDuplicateDeliveryCounted: re-delivering a known block is a no-op.
func TestDuplicateDeliveryCounted(t *testing.T) {
	c := newCluster(t, 2)
	b := block.New(1, 0, nil, nil)
	if err := b.Seal(c.signers[1]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		c.nodes[0].g.HandleMessage(1, EncodeBlockMsg(b))
	}
	if c.nodes[0].d.Len() != 1 {
		t.Fatalf("DAG has %d blocks", c.nodes[0].d.Len())
	}
	if got := c.nodes[0].m.Get(metrics.BlocksDuplicate); got != 2 {
		t.Fatalf("BlocksDuplicate = %d", got)
	}
}

// TestReceivedBlockIsItsPayload: the payload the transport hands over is
// the received block's frame — viewed, not copied, between the socket's
// buffer and the DAG, for a block inserted at once and for one buffered
// first.
func TestReceivedBlockIsItsPayload(t *testing.T) {
	c := newCluster(t, 2)
	chain := chainOf(t, c.signers[1], 2)
	payloads := [][]byte{EncodeBlockMsg(chain[0]), EncodeBlockMsg(chain[1])}
	c.nodes[0].g.HandleMessage(1, payloads[1]) // waits for its parent
	c.nodes[0].g.HandleMessage(1, payloads[0])
	for i, p := range payloads {
		got, ok := c.nodes[0].d.Get(chain[i].Ref())
		if !ok {
			t.Fatalf("block %d not inserted", i)
		}
		frame := got.Encode()
		if &frame[len(frame)-1] != &p[len(p)-1] || &got.Sig[len(got.Sig)-1] != &p[len(p)-1] {
			t.Fatalf("block %d was copied out of its payload", i)
		}
	}
}

// TestMalformedPayloadsIgnored: garbage from the network is dropped.
func TestMalformedPayloadsIgnored(t *testing.T) {
	c := newCluster(t, 2)
	payloads := [][]byte{nil, {}, {0x00}, {0x01, 0x05, 1, 2}, {0x02, 1}, {0x09}}
	for _, p := range payloads {
		c.nodes[0].g.HandleMessage(1, p)
	}
	if c.nodes[0].d.Len() != 0 || len(c.nodes[0].g.pending) != 0 {
		t.Fatal("malformed payload mutated state")
	}
}

// TestOnInsertObservesTopologicalOrder: the interpreter hook sees blocks
// in an order where predecessors always precede successors, even when the
// network delivers wildly out of order.
func TestOnInsertObservesTopologicalOrder(t *testing.T) {
	c := newCluster(t, 4, simnet.WithLatency(5*time.Millisecond, 80*time.Millisecond))
	var seen []*block.Block
	pos := make(map[block.Ref]int)
	c.nodes[0].g.cfg.OnInsert = func(b *block.Block) error {
		pos[b.Ref()] = len(seen)
		seen = append(seen, b)
		return nil
	}
	c.disseminateRounds(4, 20*time.Millisecond)
	for _, b := range seen {
		for _, p := range b.Preds {
			pp, ok := pos[p]
			if !ok || pp > pos[b.Ref()] {
				t.Fatalf("block %v observed before its pred", b.Ref())
			}
		}
	}
	if len(seen) != c.nodes[0].d.Len() {
		t.Fatalf("hook saw %d blocks, DAG has %d", len(seen), c.nodes[0].d.Len())
	}
}

// TestConfigValidation: missing required fields are rejected.
func TestConfigValidation(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	good := Config{
		Signer: signers[0], Roster: roster, DAG: dag.New(roster),
		Requests: &queueSource{}, Transport: net.Transport(0), Clock: net.Now,
		OnInsert:   func(*block.Block) error { return nil },
		OnEvidence: discardEvidence,
	}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"signer":    func(c *Config) { c.Signer = nil },
		"roster":    func(c *Config) { c.Roster = nil },
		"dag":       func(c *Config) { c.DAG = nil },
		"requests":  func(c *Config) { c.Requests = nil },
		"transport": func(c *Config) { c.Transport = nil },
		"insert":    func(c *Config) { c.OnInsert = nil },
		"clock":     func(c *Config) { c.Clock = nil },
		"evidence":  func(c *Config) { c.OnEvidence = nil },
	} {
		bad := good
		mutate(&bad)
		if _, err := New(bad); err == nil {
			t.Errorf("config without %s accepted", name)
		}
	}
}

// sendLog is a transport that records every send, in order, and counts the
// FWD frames per destination.
type sendLog struct {
	transport.Transport
	sends []string
	fwds  map[types.ServerID]int
}

func (l *sendLog) Send(to types.ServerID, ch transport.Channel, payload []byte) {
	l.sends = append(l.sends, fmt.Sprintf("%v %d %x", to, ch, payload))
	if payload[0] == kindFwd {
		if l.fwds == nil {
			l.fwds = make(map[types.ServerID]int)
		}
		l.fwds[to]++
	}
	l.Transport.Send(to, ch, payload)
}

// TestTickRetriesInReferenceOrder: while several blocks sit in the buffer,
// every Tick past ResendAfter re-asks for each one's missing predecessors —
// block by block in reference order, a block's predecessors in the order it
// cites them, each from the block's sender — and so sends the same bytes in
// the same order on every run, whatever order the pending map iterates in.
func TestTickRetriesInReferenceOrder(t *testing.T) {
	const ticks = 4
	run := func() (sent, want []string) {
		roster, signers, err := crypto.LocalRoster(4)
		if err != nil {
			t.Fatal(err)
		}
		net := simnet.New(simnet.WithSeed(99))
		log := &sendLog{Transport: net.Transport(0)}
		g := newGossip(t, Config{
			Signer:     signers[0],
			Roster:     roster,
			DAG:        dag.New(roster),
			Transport:  log,
			Clock:      net.Now,
			OnEvidence: discardEvidence,
		})
		// Servers 1, 2 and 3 each send a block with one, two and three
		// predecessors nobody will ever supply.
		var blocks []*block.Block
		for builder := 1; builder <= 3; builder++ {
			refs := make([]block.Ref, builder)
			for i := range refs {
				refs[i] = block.Ref(crypto.Hash([]byte{byte(builder), byte(i)}))
			}
			b := block.New(types.ServerID(builder), 0, refs, nil)
			if err := b.Seal(signers[builder]); err != nil {
				t.Fatal(err)
			}
			g.HandleMessage(b.Builder, EncodeBlockMsg(b))
			blocks = append(blocks, b)
		}
		if got := missingRefs(t, g); got != 6 {
			t.Fatalf("%d references outstanding, want 6", got)
		}
		slices.SortFunc(blocks, func(a, b *block.Block) int {
			ra, rb := a.Ref(), b.Ref()
			return bytes.Compare(ra[:], rb[:])
		})
		for _, b := range blocks {
			for _, p := range b.Preds {
				want = append(want, fmt.Sprintf("%v %d %x", b.Builder, transport.ChanGossip, EncodeFwdMsg(p)))
			}
		}
		log.sends = nil // the first asks follow arrival order
		g.Tick()        // nothing is due yet
		for i := 0; i < ticks; i++ {
			runFor(net, ResendAfter)
			g.Tick()
			g.Tick() // just asked: not due again
		}
		return log.sends, slices.Repeat(want, ticks)
	}
	for i := 0; i < 5; i++ {
		if sent, want := run(); !slices.Equal(sent, want) {
			t.Fatalf("run %d: retries sent\n%v\nwant\n%v", i, sent, want)
		}
	}
}

// TestFwdNoFanOut: a roster member signs one block citing a thousand
// references nobody holds. The receiver asks the sender for them, every
// ResendAfter for as long as the block waits, and never anyone else — a
// withholding peer gets no help from honest ones in spending their
// bandwidth.
func TestFwdNoFanOut(t *testing.T) {
	const k, ticks = 1000, 10
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	log := &sendLog{Transport: net.Transport(0)}
	g := newGossip(t, Config{
		Signer: signers[0], Roster: roster, DAG: dag.New(roster),
		Transport: log, Clock: net.Now, OnEvidence: discardEvidence,
	})
	refs := make([]block.Ref, k)
	for i := range refs {
		refs[i] = block.Ref(crypto.Hash([]byte{byte(i), byte(i >> 8)}))
	}
	b := block.New(3, 0, refs, nil)
	if err := b.Seal(signers[3]); err != nil {
		t.Fatal(err)
	}
	g.HandleMessage(3, EncodeBlockMsg(b))
	for i := 0; i < ticks; i++ {
		runFor(net, ResendAfter)
		g.Tick()
	}
	got := log.fwds
	if got[1] != 0 || got[2] != 0 {
		t.Fatalf("FWD requests fanned out to peers that never sent the block: %v", got)
	}
	if want := k * (1 + ticks); got[3] != want {
		t.Fatalf("%d FWD requests to the sender, want %d", got[3], want)
	}
}

// askAudit checks the one asking rule on a running cluster: a FWD goes to
// a peer only for a reference that a block the peer handed over reaches,
// through blocks this server has been handed.
type askAudit struct {
	transport.Transport
	transport.Endpoint
	t      *testing.T
	blocks map[block.Ref]*block.Block        // every block handed over, by anyone
	handed map[types.ServerID][]*block.Block // sender → the blocks it handed over
}

func (a *askAudit) Deliver(from types.ServerID, payload []byte) {
	if in := decode(payload); in.kind == kindBlock {
		a.blocks[in.blk.Ref()] = in.blk
		a.handed[from] = append(a.handed[from], in.blk)
	}
	a.Endpoint.Deliver(from, payload)
}

// reaches reports whether a block the peer handed over reaches ref.
func (a *askAudit) reaches(peer types.ServerID, ref block.Ref) bool {
	seen := make(map[block.Ref]bool)
	todo := slices.Clone(a.handed[peer])
	for len(todo) > 0 {
		b := todo[len(todo)-1]
		todo = todo[:len(todo)-1]
		for _, p := range b.Preds {
			if p == ref {
				return true
			}
			if next := a.blocks[p]; next != nil && !seen[p] {
				seen[p] = true
				todo = append(todo, next)
			}
		}
	}
	return false
}

func (a *askAudit) Send(to types.ServerID, ch transport.Channel, payload []byte) {
	if in := decode(payload); in.kind == kindFwd && !a.reaches(to, in.ref) {
		a.t.Errorf("asked %v for %v, which no block it sent reaches", to, in.ref)
	}
	a.Transport.Send(to, ch, payload)
}

// TestConvergenceUnderDropsBySenderOnly is Lemma 3.7 with the senders of a
// block's descendants as the only peers ever asked for it: forty seeds of 20% loss, every request audited,
// and the DAGs are joint once the loss stops and two more rounds have
// cited what was lost last.
func TestConvergenceUnderDropsBySenderOnly(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		c := newCluster(t, 4, simnet.WithSeed(seed), simnet.WithDrop(0.2))
		for i, n := range c.nodes {
			a := &askAudit{Transport: n.g.cfg.Transport, Endpoint: n, t: t,
				blocks: make(map[block.Ref]*block.Block), handed: make(map[types.ServerID][]*block.Block)}
			n.g.cfg.Transport = a
			c.net.Register(types.ServerID(i), transport.ChanGossip, a)
		}
		c.disseminateRounds(5, 50*time.Millisecond)
		c.net.SetDrop(0)
		c.disseminateRounds(2, 50*time.Millisecond)
		c.assertConverged()
		if got := c.nodes[0].d.Len(); got != 28 {
			t.Fatalf("seed %d: DAG has %d blocks, want 28", seed, got)
		}
	}
}

// TestQueueGaugesFollowTheBuffers: the pending-block and missing-reference
// gauges read what the buffers hold — also after a block that was only
// buffered, when no insert follows to report it — and fall back to zero
// once the chain arrives, or proves unvalidatable.
func TestQueueGaugesFollowTheBuffers(t *testing.T) {
	c := newCluster(t, 2)
	n0 := c.nodes[0]
	chain := make([]*block.Block, 3)
	for i := range chain {
		var preds []block.Ref
		if i > 0 {
			preds = []block.Ref{chain[i-1].Ref()}
		}
		chain[i] = block.New(1, uint64(i), preds, nil)
		if err := chain[i].Seal(c.signers[1]); err != nil {
			t.Fatal(err)
		}
	}
	gauges := func() [3]int64 {
		s := n0.m
		if s.Get(metrics.PendingBlocks) != int64(len(n0.g.pending)) || s.Get(metrics.MissingRefs) != int64(missingRefs(t, n0.g)) {
			t.Fatalf("gauges %d/%d, buffers %d/%d", s.Get(metrics.PendingBlocks), s.Get(metrics.MissingRefs), len(n0.g.pending), missingRefs(t, n0.g))
		}
		return [3]int64{s.Get(metrics.Tips), s.Get(metrics.PendingBlocks), s.Get(metrics.MissingRefs)}
	}
	n0.g.HandleMessage(1, EncodeBlockMsg(chain[2]))
	if got := gauges(); got != [3]int64{0, 1, 1} {
		t.Fatalf("after the chain's third block alone: tips/pending/missing = %v", got)
	}
	n0.g.HandleMessage(1, EncodeBlockMsg(chain[1]))
	if got := gauges(); got != [3]int64{0, 2, 1} {
		t.Fatalf("after its second: tips/pending/missing = %v", got)
	}
	n0.g.HandleMessage(1, EncodeBlockMsg(chain[0]))
	if got := gauges(); got != [3]int64{1, 0, 0} {
		t.Fatalf("after its first: tips/pending/missing = %v", got)
	}
	// A block citing one whose signature is bad is buffered, then poisoned
	// with it: nothing stays behind.
	forged := block.New(1, 3, []block.Ref{chain[2].Ref()}, nil)
	if err := forged.Seal(c.signers[1]); err != nil {
		t.Fatal(err)
	}
	forged = dagtest.Forge(forged)
	orphan := block.New(1, 4, []block.Ref{forged.Ref()}, nil)
	if err := orphan.Seal(c.signers[1]); err != nil {
		t.Fatal(err)
	}
	n0.g.HandleMessage(1, EncodeBlockMsg(orphan))
	if got := gauges(); got != [3]int64{1, 1, 1} {
		t.Fatalf("after an orphan: tips/pending/missing = %v", got)
	}
	n0.g.HandleMessage(1, EncodeBlockMsg(forged))
	if got := gauges(); got != [3]int64{1, 0, 0} {
		t.Fatalf("after its forged predecessor: tips/pending/missing = %v", got)
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
