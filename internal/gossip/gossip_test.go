package gossip

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/metrics"
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
		g, err := New(Config{
			Signer:    signers[i],
			Roster:    roster,
			DAG:       d,
			Requests:  src,
			Transport: net.Transport(types.ServerID(i)),
			Clock:     net.Now,
			Metrics:   m,

			OnEvidence: discardEvidence,
		})
		if err != nil {
			t.Fatal(err)
		}
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
			c.net.After(at, func() { node.g.Tick(c.net.Now()) })
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
	if eqs := c.nodes[0].d.Equivocations(); len(eqs) != 0 {
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

// TestMaxBatchSplitsRequests: more requests than MaxBatch spill into the
// following block.
func TestMaxBatchSplitsRequests(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	d := dag.New(roster)
	src := &queueSource{}
	for i := 0; i < 5; i++ {
		src.reqs = append(src.reqs, block.Request{Label: types.Label(fmt.Sprintf("l%d", i))})
	}
	g, err := New(Config{
		Signer: signers[0], Roster: roster, DAG: d, Requests: src,
		Transport: net.Transport(0), Clock: net.Now, MaxBatch: 2,
		OnEvidence: discardEvidence,
	})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := g.Disseminate()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := g.Disseminate()
	if err != nil {
		t.Fatal(err)
	}
	b3, err := g.Disseminate()
	if err != nil {
		t.Fatal(err)
	}
	if len(b1.Requests) != 2 || len(b2.Requests) != 2 || len(b3.Requests) != 1 {
		t.Fatalf("batch sizes = %d,%d,%d want 2,2,1",
			len(b1.Requests), len(b2.Requests), len(b3.Requests))
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

// TestFwdFallbackAfterRetries: when the referencing block's builder is
// unreachable, the FWD request falls back to broadcasting and any server
// holding the block serves it.
func TestFwdFallbackAfterRetries(t *testing.T) {
	c := newCluster(t, 4)
	// Block the links between server 2 and server 1 in both directions.
	c.net.SetPartition(func(from, to types.ServerID) bool {
		return (from == 1 && to == 2) || (from == 2 && to == 1)
	})
	// Byzantine server 3 sends its block b0 to servers 0 and 1 only.
	b0 := block.New(3, 0, nil, nil)
	if err := b0.Seal(c.signers[3]); err != nil {
		t.Fatal(err)
	}
	c.nodes[0].g.HandleMessage(3, EncodeBlockMsg(b0))
	c.nodes[1].g.HandleMessage(3, EncodeBlockMsg(b0))
	// Server 1 disseminates a block referencing b0; server 2 receives it
	// from... nobody (link blocked), so inject it directly, simulating a
	// relayed copy.
	b1, err := c.nodes[1].g.Disseminate()
	if err != nil {
		t.Fatal(err)
	}
	c.net.Run() // let servers 0 and 3 receive b1
	c.nodes[2].g.HandleMessage(1, EncodeBlockMsg(b1))
	// Server 2 now FWD-requests b0 from server 1 — blocked. Tick past
	// the fallback threshold; server 0 serves the broadcast FWD.
	for i := 0; i < FwdFallbackAfter+1; i++ {
		c.net.RunFor(ResendAfter + time.Millisecond)
		c.nodes[2].g.Tick(c.net.Now())
	}
	c.net.Run()
	if !c.nodes[2].d.Contains(b0.Ref()) {
		t.Fatal("fallback FWD did not recover the block")
	}
	if !c.nodes[2].d.Contains(b1.Ref()) {
		t.Fatal("waiting block was not inserted after recovery")
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
	// Seal with the wrong signer by hand: copy what Seal does.
	enc := forged.SigningBytes()
	sum := crypto.Hash(enc)
	forged.Sig = c.signers[1].Sign(sum[:])
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
	if got := n0.d.Equivocators(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Equivocators = %v", got)
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
		Transport: net.Transport(0), Clock: net.Now,
		OnEvidence: discardEvidence,
	}
	if _, err := New(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Config){
		"signer":    func(c *Config) { c.Signer = nil },
		"roster":    func(c *Config) { c.Roster = nil },
		"dag":       func(c *Config) { c.DAG = nil },
		"transport": func(c *Config) { c.Transport = nil },
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

// sendLog is a transport that records every send, in order.
type sendLog struct {
	transport.Transport
	sends []string
}

func (l *sendLog) Send(to types.ServerID, ch transport.Channel, payload []byte) {
	l.sends = append(l.sends, fmt.Sprintf("%v %d %x", to, ch, payload))
	l.Transport.Send(to, ch, payload)
}

// TestTickRetriesInReferenceOrder: two identically seeded runs send
// byte-identical sequences while several FWD requests are outstanding,
// through the unicast retries and the broadcast fallback alike — the
// retries must not go out in the order the missing map happens to iterate.
func TestTickRetriesInReferenceOrder(t *testing.T) {
	run := func() []string {
		roster, signers, err := crypto.LocalRoster(4)
		if err != nil {
			t.Fatal(err)
		}
		net := simnet.New(simnet.WithSeed(99))
		log := &sendLog{Transport: net.Transport(0)}
		g, err := New(Config{
			Signer:     signers[0],
			Roster:     roster,
			DAG:        dag.New(roster),
			Requests:   &queueSource{},
			Transport:  log,
			Clock:      net.Now,
			OnEvidence: discardEvidence,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Servers 2 and 3 send a block with two and three predecessors
		// nobody will ever supply: five references stay outstanding.
		for builder := 2; builder <= 3; builder++ {
			refs := make([]block.Ref, builder)
			for i := range refs {
				refs[i] = block.Ref(crypto.Hash([]byte{byte(builder), byte(i)}))
			}
			b := block.New(types.ServerID(builder), 0, refs, nil)
			if err := b.Seal(signers[builder]); err != nil {
				t.Fatal(err)
			}
			g.HandleMessage(types.ServerID(builder), EncodeBlockMsg(b))
		}
		if len(g.missing) != 5 {
			t.Fatalf("%d references outstanding, want 5", len(g.missing))
		}
		log.sends = nil // the first asks follow arrival order, not the map
		for i := 0; i < FwdFallbackAfter+2; i++ {
			net.RunFor(ResendAfter + time.Millisecond)
			g.Tick(net.Now())
		}
		return log.sends
	}
	first := run()
	// Two unicast rounds of five, then broadcast rounds of five to three peers.
	if want := 2*5 + 3*5*3; len(first) != want {
		t.Fatalf("%d retries sent, want %d", len(first), want)
	}
	for i := 0; i < 5; i++ {
		if again := run(); !slices.Equal(first, again) {
			t.Fatalf("run %d sent a different sequence than the first", i+1)
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
		s := metrics.Families.Snapshot(n0.m)
		if s.Get(metrics.PendingBlocks) != int64(len(n0.g.pending)) || s.Get(metrics.MissingRefs) != int64(len(n0.g.missing)) {
			t.Fatalf("gauges %d/%d, buffers %d/%d", s.Get(metrics.PendingBlocks), s.Get(metrics.MissingRefs), len(n0.g.pending), len(n0.g.missing))
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
