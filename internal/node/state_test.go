package node_test

import (
	"testing"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/node"
	"blockdag/internal/simnet"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSealPruneCadence steps a durable single-server node on a virtual
// clock: the seal cycle fires when node.SealEvery has elapsed on the
// server's clock and not a tick before, seals only a frontier that moved,
// signs what it serves with the server's own key, and an idle state still
// has its growing chain pruned — with the served base/horizon following the
// cut under the unchanged commit.
func TestSealPruneCadence(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	const sealEvery = node.SealEvery
	net := simnet.New()
	machine := state.NewMachine(0)
	nd := steppedNode(t, net, roster, signers[0], core.Config{
		OnIndication: func(label types.Label, value []byte) {
			machine.Tree().Put([]byte(label), value)
			machine.SealAt(uint64(machine.Tree().Len()))
		},
	}, node.Config{Store: st, State: machine})
	grow := func(blocks int) {
		for i := 0; i < blocks; i++ {
			nd.Disseminate()
		}
	}
	horizon := func() uint64 { return st.Horizon()[0] }

	nd.Server().Request("ℓ", []byte("v"))
	grow(6)
	if machine.NextSlot() != 1 {
		t.Fatalf("setup: machine at slot %d, want the one delivery applied", machine.NextSlot())
	}
	net.RunFor(sealEvery - time.Millisecond)
	nd.Tick()
	if nd.ServedSnapshot() != nil || st.StateCheckpoint() != nil {
		t.Fatal("sealed before SealEvery elapsed")
	}
	net.RunFor(time.Millisecond)
	nd.Tick()
	first := nd.ServedSnapshot()
	if first == nil || first.Signed.Commit.Slot != 1 {
		t.Fatalf("at SealEvery: served %+v, want the slot-1 commit", first)
	}
	if err := first.Signed.Verify(roster); err != nil || first.Signed.Server != signers[0].ID() {
		t.Fatalf("served commit signed by s%d: %v, want the server's own signature", first.Signed.Server, err)
	}
	cut := horizon()
	if cut == 0 || first.Horizon[0] != cut {
		t.Fatalf("seal did not prune: store horizon %d, served %v", cut, first.Horizon)
	}

	// Idle state, growing chain: nothing to seal, still something to cut —
	// but only once the cadence comes round again.
	grow(5)
	net.RunFor(sealEvery - time.Millisecond)
	nd.Tick()
	if horizon() != cut {
		t.Fatal("pruned between cadences")
	}
	net.RunFor(time.Millisecond)
	nd.Tick()
	idle := nd.ServedSnapshot()
	if horizon() != cut+5 || idle.Horizon[0] != cut+5 {
		t.Fatalf("idle state was not pruned: store horizon %d, served %v, want %d", horizon(), idle.Horizon, cut+5)
	}
	if idle.Signed.Commit != first.Signed.Commit {
		t.Fatalf("idle state re-sealed: %+v → %+v", first.Signed.Commit, idle.Signed.Commit)
	}
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
}
