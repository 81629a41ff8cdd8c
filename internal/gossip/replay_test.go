package gossip

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/simnet"
	"blockdag/internal/types"
)

// replay feeds blocks, in order, to a fresh gossip instance over a fresh
// DAG the way core.Server.Restore feeds it a journal: InsertVerified per
// block. There is no recovery step: the chain state after the last block
// is the state a restarted server builds from.
func replay(t *testing.T, cfg Config, blocks []*block.Block) *Gossip {
	t.Helper()
	cfg.DAG = dag.New(cfg.Roster)
	g := newGossip(t, cfg)
	for _, b := range blocks {
		if err := g.InsertVerified(b); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// recoveredGossip replays a pre-crash DAG into a fresh gossip instance and
// returns the first block it then disseminates.
func recoveredGossip(t *testing.T, d *dag.DAG, signers []*crypto.Signer, roster *crypto.Roster) *block.Block {
	t.Helper()
	net := simnet.New()
	g := replay(t, Config{
		Signer:     signers[0],
		Roster:     roster,
		Transport:  net.Transport(0),
		Clock:      net.Now,
		OnEvidence: discardEvidence,
	}, d.Blocks())
	b, err := g.Disseminate()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// seal is a local helper building signed blocks.
func seal(t *testing.T, signer *crypto.Signer, seq uint64, preds []block.Ref, reqs ...block.Request) *block.Block {
	t.Helper()
	b := block.New(signer.ID(), seq, preds, reqs)
	if err := b.Seal(signer); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRecoverContinuesChain: after recovery, the next block has the right
// sequence number, parents the old tip, and references what no pre-crash
// block covered and nothing a pre-crash block did (Lemma A.6 across
// restarts).
func TestRecoverContinuesChain(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	d := dag.New(roster)

	// Pre-crash history of s0: genesis, then one block referencing
	// s1's genesis. s2's genesis arrived but was never referenced.
	g0 := seal(t, signers[0], 0, nil)
	g1 := seal(t, signers[1], 0, nil)
	g2 := seal(t, signers[2], 0, nil)
	own1 := seal(t, signers[0], 1, []block.Ref{g0.Ref(), g1.Ref()})
	for _, b := range []*block.Block{g0, g1, g2, own1} {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}

	next := recoveredGossip(t, d, signers, roster)
	if next.Seq != 2 {
		t.Fatalf("recovered block has seq %d, want 2", next.Seq)
	}
	if next.Preds[0] != own1.Ref() {
		t.Fatal("recovered block does not parent the old tip")
	}
	if !slices.Contains(next.Preds, g2.Ref()) {
		t.Fatal("recovered block misses the unreferenced block g2")
	}
	if slices.Contains(next.Preds, g1.Ref()) || slices.Contains(next.Preds, g0.Ref()) {
		t.Fatal("recovered block re-references already-referenced blocks")
	}
}

// TestRecoverFreshServer: recovery on a DAG without own blocks produces a
// genesis block referencing everything present.
func TestRecoverFreshServer(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	d := dag.New(roster)
	g1 := seal(t, signers[1], 0, nil)
	if err := d.Insert(g1); err != nil {
		t.Fatal(err)
	}
	next := recoveredGossip(t, d, signers, roster)
	if next.Seq != 0 {
		t.Fatalf("fresh recovery built seq %d, want genesis", next.Seq)
	}
	if !slices.Contains(next.Preds, g1.Ref()) {
		t.Fatal("fresh recovery misses existing block")
	}
}

// TestRecoverReferencesTipsOnly: recovery references the own tip plus the
// DAG tips outside the own ancestry — not the whole backlog.
func TestRecoverReferencesTipsOnly(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	d := dag.New(roster)
	g0 := seal(t, signers[0], 0, nil)
	// s1 built a chain of three blocks that s0 never referenced.
	b10 := seal(t, signers[1], 0, nil)
	b11 := seal(t, signers[1], 1, []block.Ref{b10.Ref()})
	b12 := seal(t, signers[1], 2, []block.Ref{b11.Ref()})
	for _, b := range []*block.Block{g0, b10, b11, b12} {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	next := recoveredGossip(t, d, signers, roster)
	if next.Preds[0] != g0.Ref() {
		t.Fatal("recovery does not parent the own tip")
	}
	if !slices.Contains(next.Preds, b12.Ref()) {
		t.Fatal("recovery misses the chain tip")
	}
	if slices.Contains(next.Preds, b10.Ref()) || slices.Contains(next.Preds, b11.Ref()) {
		t.Fatal("recovery references covered ancestors")
	}
	if len(next.Preds) != 2 {
		t.Fatalf("recovery has %d preds, want 2", len(next.Preds))
	}
}

// TestDisseminationReferencesTips: a block built after receiving a peer's
// chain references only the chain tip.
func TestDisseminationReferencesTips(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	d := dag.New(roster)
	g := newGossip(t, Config{
		Signer:     signers[0],
		Roster:     roster,
		DAG:        d,
		Transport:  net.Transport(0),
		Clock:      net.Now,
		OnEvidence: discardEvidence,
	})
	b10 := seal(t, signers[1], 0, nil)
	b11 := seal(t, signers[1], 1, []block.Ref{b10.Ref()})
	g.HandleMessage(1, EncodeBlockMsg(b10))
	g.HandleMessage(1, EncodeBlockMsg(b11))
	own, err := g.Disseminate()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(own.Preds, b11.Ref()) || slices.Contains(own.Preds, b10.Ref()) {
		t.Fatalf("block preds = %v, want only the tip", own.Preds)
	}
	// The next own block references only its parent (tips cleared).
	own2, err := g.Disseminate()
	if err != nil {
		t.Fatal(err)
	}
	if len(own2.Preds) != 1 || own2.Preds[0] != own.Ref() {
		t.Fatalf("second block preds = %v, want [parent]", own2.Preds)
	}
}

// TestReplayRebuildsLiveTips: whatever a server has inserted and built,
// replaying its DAG arrives at the chain state the live instance holds —
// same sequence number, same parent, same tip set — so the first block after
// a crash is the block the server would have built without one. Peers'
// blocks cite random earlier blocks (the server's own among them) and reach
// it late and out of order. So does an instance that builds nothing and is
// handed the same blocks, the server's own included, in the same order: a
// server that lost its disk and re-learns its chain from its peers.
func TestReplayRebuildsLiveTips(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := dagtest.NewHarness(4)
		net := simnet.New()
		cfg := Config{
			Signer: h.Signers[0], Roster: h.Roster, DAG: dag.New(h.Roster),
			Transport: net.Transport(0), Clock: net.Now,
			OnEvidence: discardEvidence,
		}
		live := newGossip(t, cfg)
		relearnCfg := cfg
		relearnCfg.DAG = dag.New(h.Roster)
		relearning := newGossip(t, relearnCfg)
		var refs []block.Ref        // every block built so far, the server's own too
		var inFlight []*block.Block // peers' blocks not yet delivered
		sorted := func(tips []block.Ref) []block.Ref {
			tips = slices.Clone(tips)
			slices.SortFunc(tips, func(a, b block.Ref) int { return bytes.Compare(a[:], b[:]) })
			return tips
		}
		multiTip := 0
		for step := 0; step < 200; step++ {
			switch peer := rng.Intn(5); {
			case peer == 0:
				own, err := live.Disseminate()
				if err != nil {
					t.Fatal(err)
				}
				h.Insert(own)
				refs = append(refs, own.Ref())
				relearning.HandleMessage(1, EncodeBlockMsg(own))
			case len(h.DAG.ByBuilder(types.ServerID(peer%3+1))) == 0:
				b := h.Genesis(peer%3 + 1)
				refs, inFlight = append(refs, b.Ref()), append(inFlight, b)
			default:
				var cites []block.Ref
				for _, r := range refs[max(0, len(refs)-8):] {
					if b, _ := h.DAG.Get(r); int(b.Builder) != peer%3+1 && rng.Intn(3) == 0 {
						cites = append(cites, r)
					}
				}
				b := h.Next(peer%3+1, cites)
				refs, inFlight = append(refs, b.Ref()), append(inFlight, b)
			}
			rng.Shuffle(len(inFlight), func(i, j int) { inFlight[i], inFlight[j] = inFlight[j], inFlight[i] })
			for len(inFlight) > 0 && rng.Intn(3) > 0 {
				live.HandleMessage(inFlight[0].Builder, EncodeBlockMsg(inFlight[0]))
				relearning.HandleMessage(inFlight[0].Builder, EncodeBlockMsg(inFlight[0]))
				inFlight = inFlight[1:]
			}

			replayed := replay(t, cfg, cfg.DAG.Blocks())
			for name, other := range map[string]*Gossip{"replayed": replayed, "relearning": relearning} {
				otherRef, otherOK := other.cfg.DAG.HeadRef(other.self)
				liveRef, liveOK := live.cfg.DAG.HeadRef(live.self)
				if other.cfg.DAG.Head(other.self) != live.cfg.DAG.Head(live.self) || otherOK != liveOK || otherRef != liveRef {
					t.Fatalf("seed %d step %d: %s chain position differs", seed, step, name)
				}
				if !slices.Equal(sorted(other.curTips), sorted(live.curTips)) {
					t.Fatalf("seed %d step %d: %s tips %v, live tips %v", seed, step, name, sorted(other.curTips), sorted(live.curTips))
				}
			}
			if len(live.curTips) > 1 {
				multiTip++
			}
		}
		if multiTip == 0 {
			t.Fatalf("seed %d: the live server never held more than one tip", seed)
		}
	}
}
