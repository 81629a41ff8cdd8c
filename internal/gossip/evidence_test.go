package gossip

import (
	"bytes"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/evidence"
	"blockdag/internal/metrics"
	"blockdag/internal/peerscore"
	"blockdag/internal/simnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// accountableNode is a testNode with the accountability layer wired.
type accountableNode struct {
	*testNode
	pool   *evidence.Pool
	scores *peerscore.Scorer
}

// newAccountableCluster mirrors newCluster with a scorer wired on every
// node, so detection, relay, and bans are all live.
func newAccountableCluster(t *testing.T, n int) (*cluster, []*accountableNode) {
	t.Helper()
	roster, signers, err := crypto.LocalRoster(n)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.WithSeed(99))
	c := &cluster{t: t, net: net, roster: roster, signers: signers}
	var acc []*accountableNode
	for i := 0; i < n; i++ {
		d := dag.New(roster)
		m := &metrics.Metrics{}
		src := &queueSource{}
		scores := peerscore.New()
		g := newGossip(t, Config{
			Signer:     signers[i],
			Roster:     roster,
			DAG:        d,
			Requests:   src,
			Transport:  net.Transport(types.ServerID(i)),
			Clock:      net.Now,
			Metrics:    m,
			Scores:     scores,
			OnEvidence: discardEvidence,
		})
		node := &testNode{g: g, d: d, m: m, src: src, metrics: m}
		c.nodes = append(c.nodes, node)
		acc = append(acc, &accountableNode{testNode: node, pool: g.Evidence(), scores: scores})
		net.Register(types.ServerID(i), transport.ChanGossip, node)
	}
	return c, acc
}

// discardEvidence is the OnEvidence hook of a node with no journal.
func discardEvidence(*evidence.Proof) error { return nil }

// fork seals two conflicting blocks by the given builder at seq 0.
func forkPair(t *testing.T, c *cluster, builder int) (*block.Block, *block.Block) {
	t.Helper()
	seal := func(data string) *block.Block {
		b := block.New(types.ServerID(builder), 0, nil,
			[]block.Request{{Label: "ℓ", Data: []byte(data)}})
		if err := b.Seal(c.signers[builder]); err != nil {
			t.Fatal(err)
		}
		return b
	}
	return seal("a"), seal("b")
}

// TestEvidenceFlow is the accountability pipeline end to end on the
// gossip layer alone: node 0 sees both forks, detects, convicts, and
// relays; every node ends up holding the identical canonical proof with
// the equivocator banned; fresh blocks by the banned builder are dropped.
func TestEvidenceFlow(t *testing.T) {
	c, acc := newAccountableCluster(t, 4)
	forkA, forkB := forkPair(t, c, 3)

	// Node 0 receives both forks: local detection fires on the second.
	c.nodes[0].g.HandleMessage(3, EncodeBlockMsg(forkA))
	c.nodes[0].g.HandleMessage(3, EncodeBlockMsg(forkB))
	c.net.Run()

	// Every honest node convicts; the equivocator's own slot (3) is
	// skipped by relay — it already knows what it did.
	want := evidence.New(forkA, forkB).Encode()
	for i, n := range acc[:3] {
		p, ok := n.pool.Get(3)
		if !ok {
			t.Fatalf("node %d holds no proof", i)
		}
		if !bytes.Equal(p.Encode(), want) {
			t.Fatalf("node %d holds a non-canonical proof", i)
		}
		if !n.scores.Banned(3) {
			t.Fatalf("node %d did not ban the equivocator", i)
		}
	}
	snap0 := metrics.Families.Snapshot(acc[0].m)
	if snap0.Get(metrics.EquivocationsSeen) != 1 || snap0.Get(metrics.EvidenceReceived) != 1 || snap0.Get(metrics.PeersBanned) != 1 {
		t.Fatalf("detector metrics wrong: %+v", snap0)
	}
	if snap0.Get(metrics.EvidenceRelayed) == 0 {
		t.Fatal("detector relayed no evidence")
	}
	// Learners accept via gossip, not local detection.
	snap1 := metrics.Families.Snapshot(acc[1].m)
	if snap1.Get(metrics.EquivocationsSeen) != 0 || snap1.Get(metrics.EvidenceReceived) != 1 || snap1.Get(metrics.PeersBanned) != 1 {
		t.Fatalf("learner metrics wrong: %+v", snap1)
	}

	// A fresh block by the banned builder is refused everywhere.
	fresh := block.New(3, 1, []block.Ref{forkA.Ref()}, nil)
	if err := fresh.Seal(c.signers[3]); err != nil {
		t.Fatal(err)
	}
	c.nodes[1].g.HandleMessage(3, EncodeBlockMsg(fresh))
	c.net.Run()
	if c.nodes[1].d.Contains(fresh.Ref()) {
		t.Fatal("banned builder's fresh block entered the DAG")
	}
	if got := acc[1].m.Get(metrics.BannedBlocksDropped); got != 1 {
		t.Fatalf("BannedBlocksDropped = %d", got)
	}
}

// TestEvidenceRelayTerminates: re-delivering the same proof is a no-op —
// the pool dedup is what stops the relay flood.
func TestEvidenceRelayTerminates(t *testing.T) {
	c, acc := newAccountableCluster(t, 4)
	forkA, forkB := forkPair(t, c, 2)
	proof := evidence.New(forkA, forkB)
	enc := EncodeEvidenceMsg(proof)
	for i := 0; i < 3; i++ {
		c.nodes[0].g.HandleMessage(1, enc)
	}
	c.net.Run()
	snap := metrics.Families.Snapshot(acc[0].m)
	if snap.Get(metrics.EvidenceReceived) != 1 {
		t.Fatalf("EvidenceReceived = %d, want 1 (dedup)", snap.Get(metrics.EvidenceReceived))
	}
	// Relays go to peers other than self, the sender, and the convicted
	// equivocator: exactly one eligible peer here, exactly once.
	if snap.Get(metrics.EvidenceRelayed) != 1 {
		t.Fatalf("EvidenceRelayed = %d, want 1", snap.Get(metrics.EvidenceRelayed))
	}
}

// TestBadEvidencePenalized: a well-formed frame whose proof convicts no
// one (a frame-up attempt) is dropped with a signal against the sender and never
// relayed or pooled.
func TestBadEvidencePenalized(t *testing.T) {
	c, acc := newAccountableCluster(t, 3)
	honest := block.New(2, 0, nil, nil)
	if err := honest.Seal(c.signers[2]); err != nil {
		t.Fatal(err)
	}
	frameUp := evidence.New(honest, honest) // same block twice: no conviction
	c.nodes[0].g.HandleMessage(1, EncodeEvidenceMsg(frameUp))
	c.net.Run()
	if acc[0].pool.Len() != 0 || acc[0].scores.Banned(2) {
		t.Fatal("frame-up convicted an honest builder")
	}
	if dagtest.Signals(acc[0].scores, 1) == 0 {
		t.Fatal("frame-up sender not penalized")
	}
	if got := acc[0].m.Get(metrics.EvidenceReceived); got != 0 {
		t.Fatalf("EvidenceReceived = %d", got)
	}
}

// TestBannedBuilderWantedBlockAdmitted is the waiter exception: a block
// by a banned builder that some pending honest block references (or that
// was FWD-requested) must still be admitted, or honest pre-ban chains
// could never complete (Lemma 3.7 would wedge).
func TestBannedBuilderWantedBlockAdmitted(t *testing.T) {
	c, acc := newAccountableCluster(t, 4)
	forkA, forkB := forkPair(t, c, 3)
	preBan := block.New(3, 1, []block.Ref{forkA.Ref()}, nil)
	if err := preBan.Seal(c.signers[3]); err != nil {
		t.Fatal(err)
	}
	// An honest block referencing the equivocator's pre-ban chain.
	honest := block.New(0, 0, []block.Ref{preBan.Ref()}, nil)
	if err := honest.Seal(c.signers[0]); err != nil {
		t.Fatal(err)
	}

	n1 := acc[1]
	// Convict builder 3 at node 1 via gossiped evidence.
	n1.g.HandleMessage(0, EncodeEvidenceMsg(evidence.New(forkA, forkB)))
	if !n1.scores.Banned(3) {
		t.Fatal("evidence did not ban")
	}
	// A never-referenced fresh block by the banned builder: dropped.
	n1.g.HandleMessage(3, EncodeBlockMsg(preBan))
	if len(n1.g.pending) != 0 {
		t.Fatal("unwanted banned-builder block pended")
	}
	// Now the honest block arrives, pending on preBan — which makes
	// preBan *wanted*, so its re-delivery must be admitted.
	n1.g.HandleMessage(0, EncodeBlockMsg(honest))
	n1.g.HandleMessage(3, EncodeBlockMsg(preBan))
	n1.g.HandleMessage(3, EncodeBlockMsg(forkA))
	c.net.Run()
	if !n1.d.Contains(honest.Ref()) || !n1.d.Contains(preBan.Ref()) {
		t.Fatal("honest chain through a banned builder's pre-ban block did not complete")
	}
}

// TestNilScorerBansNothing: a gossip instance handed no scorer (newCluster;
// peerscore's nil receiver) keeps the paper's permissive semantics — forks
// are flagged and proven, nothing is banned, and the equivocator's blocks
// keep flowing.
func TestNilScorerBansNothing(t *testing.T) {
	c := newCluster(t, 3)
	forkA, forkB := forkPair(t, c, 2)
	c.nodes[0].g.HandleMessage(2, EncodeBlockMsg(forkA))
	c.nodes[0].g.HandleMessage(2, EncodeBlockMsg(forkB))
	next := block.New(2, 1, []block.Ref{forkA.Ref()}, nil)
	if err := next.Seal(c.signers[2]); err != nil {
		t.Fatal(err)
	}
	c.nodes[0].g.HandleMessage(2, EncodeBlockMsg(next))
	c.net.Run()
	n0 := c.nodes[0]
	if !n0.d.Contains(forkA.Ref()) || !n0.d.Contains(forkB.Ref()) || !n0.d.Contains(next.Ref()) {
		t.Fatal("scorerless node refused the equivocator's blocks")
	}
	if !n0.g.Evidence().Has(2) {
		t.Fatal("the fork was not exported as a proof")
	}
	if got := dagtest.Equivocators(n0.d); len(got) != 1 || got[0] != 2 {
		t.Fatalf("Equivocators = %v", got)
	}
}
