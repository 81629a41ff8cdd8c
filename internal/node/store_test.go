package node_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dagtest"
	"blockdag/internal/evidence"
	"blockdag/internal/gossip"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

// startDurableNode builds a single-server node journaling to dir and runs
// it until it has disseminated a few blocks. Returns the chain length at
// shutdown. The simnet transport swallows sends (there are no peers);
// only the runtime, the shim, and the store are under test.
func runDurableNode(t *testing.T, dir string, roster *crypto.Roster, signer *crypto.Signer) int {
	t.Helper()
	var ticks time.Duration // every fsync due
	st, err := store.Open(dir, store.Options{Roster: roster, Sync: store.SyncInterval,
		Clock: func() time.Duration { ticks += time.Second; return ticks }})
	if err != nil {
		t.Fatal(err)
	}
	prior := len(st.Blocks())
	m := &metrics.Metrics{}
	srv, err := core.NewServer(core.Config{
		Roster:    roster,
		Signer:    signer,
		Protocol:  brb.Protocol{},
		Transport: simnet.New().Transport(signer.ID()),
		Clock:     node.Clock(),
		Metrics:   m,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{
		Server:           srv,
		DisseminateEvery: 5 * time.Millisecond,
		Store:            st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	// Metrics counters are atomic, so polling them does not race with
	// the loop goroutine.
	deadline := time.Now().Add(10 * time.Second)
	for m.Get(metrics.BlocksBuilt) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("node disseminated no blocks")
		}
		time.Sleep(10 * time.Millisecond)
	}
	nd.Stop()
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	got := srv.DAG().Len()
	if got <= prior {
		t.Fatalf("chain did not grow: %d -> %d", prior, got)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestNodeStoreRecoverResume: a node journals its chain, stops, and a
// fresh node over the same directory resumes the chain — recovered blocks
// replayed, sequence numbers continuing, no self-equivocation.
func TestNodeStoreRecoverResume(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	first := runDurableNode(t, dir, roster, signers[0])
	second := runDurableNode(t, dir, roster, signers[0])
	if second <= first {
		t.Fatalf("restart did not resume the chain: %d then %d", first, second)
	}

	// Final recovery: one unbroken chain, no duplicate sequence numbers.
	st, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	seen := make(map[uint64]block.Ref)
	var maxSeq uint64
	for _, b := range st.Blocks() {
		if dup, ok := seen[b.Seq]; ok {
			t.Fatalf("seq %d journaled twice (%v, %v): restart equivocated", b.Seq, dup, b.Ref())
		}
		seen[b.Seq] = b.Ref()
		if b.Seq > maxSeq {
			maxSeq = b.Seq
		}
	}
	if int(maxSeq)+1 != len(seen) {
		t.Fatalf("chain has gaps: %d blocks, max seq %d", len(seen), maxSeq)
	}
	if len(seen) != second {
		t.Fatalf("store recovered %d blocks, final DAG had %d", len(seen), second)
	}
}

// TestNodeStoreRejectsPrewiredServer: Config.Store must be the server's
// journal; a server that already has one is refused rather than silently
// double-journaled.
func TestNodeStoreRejectsPrewiredServer(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	srv, err := core.NewServer(core.Config{
		Roster:    roster,
		Signer:    signers[0],
		Protocol:  brb.Protocol{},
		Transport: simnet.New().Transport(0),
		Clock:     node.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetJournal(st); err != nil {
		t.Fatal(err)
	}
	if _, err := node.New(node.Config{Server: srv, Store: st}); err == nil {
		t.Fatal("node.New accepted a server with a pre-wired journal")
	}
}

// TestNodeBanSurvivesRestart: a conviction outlives the process. A node
// with a store accepts a gossiped equivocation
// proof (the fork's blocks never enter its DAG, so no block replay could
// re-derive it), stops, and a fresh node over the reopened store has the
// equivocator banned on the same proof before its first delivery — node.New
// wires the head's proofs both ways, without the cluster harness.
func TestNodeBanSurvivesRestart(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	const equivocator = 2
	fork := func(data string) *block.Block {
		b := block.New(equivocator, 0, nil, []block.Request{{Label: "ℓ", Data: []byte(data)}})
		if err := b.Seal(signers[equivocator]); err != nil {
			t.Fatal(err)
		}
		return b
	}
	proof := evidence.New(fork("a"), fork("b"))
	dir := t.TempDir()
	boot := func() (*node.Node, *store.Store) {
		st, err := store.Open(dir, store.Options{Roster: roster})
		if err != nil {
			t.Fatal(err)
		}
		net := simnet.New()
		nd := steppedNode(t, net, roster, signers[0], core.Config{}, node.Config{Store: st})
		return nd, st
	}

	nd, st := boot()
	if nd.Server().Scores().Banned(equivocator) {
		t.Fatal("banned before any evidence")
	}
	nd.DeliverBurst([]gossip.Message{{From: 1, Payload: gossip.EncodeEvidenceMsg(proof)}})
	if !nd.Server().Scores().Banned(equivocator) {
		t.Fatal("gossiped proof did not convict")
	}
	if got := nd.Server().DAG().Len(); got != 0 {
		t.Fatalf("the fork entered the DAG (%d blocks); the test would not isolate the head's proofs", got)
	}
	nd.Stop()
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	nd, st = boot()
	defer func() { _ = st.Close() }()
	if !nd.Server().Scores().Banned(equivocator) {
		t.Fatal("ban did not survive the restart")
	}
	if p := nd.Server().Scores().Proof(equivocator); p == nil || !bytes.Equal(p.Encode(), proof.Encode()) {
		t.Fatal("proof did not survive the restart byte for byte")
	}
	if banned := dagtest.Equivocators(nd.Server().Scores()); !slices.Equal(banned, []types.ServerID{equivocator}) {
		t.Fatalf("banned %v, want [%d]", banned, equivocator)
	}
}
