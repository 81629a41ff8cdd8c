package node_test

import (
	"runtime"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/dagtest"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
)

// payloadChain seals count blocks on four staggered chains, each citing its
// parent and the block before it and carrying two requests of size bytes
// (two labels: two instances, the rest discarded).
func payloadChain(h *dagtest.Harness, count, size int) []*block.Block {
	data := make([]byte, size)
	blocks := make([]*block.Block, 0, count)
	parents := make([]*block.Ref, 4)
	for i := 0; i < count; i++ {
		var preds []block.Ref
		if p := parents[i%4]; p != nil {
			preds = append(preds, *p)
		}
		if i > 0 {
			preds = append(preds, blocks[i-1].Ref())
		}
		b := h.Seal(i%4, uint64(i/4), preds,
			block.Request{Label: "restart/a", Data: data}, block.Request{Label: "restart/b", Data: data})
		blocks = append(blocks, b)
		ref := b.Ref()
		parents[i%4] = &ref
	}
	return blocks
}

// journalPayloadChain journals blocks into a fresh store in dir.
func journalPayloadChain(t *testing.T, h *dagtest.Harness, dir string, blocks []*block.Block) {
	t.Helper()
	st, err := store.Open(dir, store.Options{Roster: h.Roster, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestartRetainsRowsNotBytes: a node restarted from a store of 1 024
// blocks holds, once New has restored them, their rows and not their
// bytes: the store hands what Open read to the replay and lets go of it,
// and the DAG releases what every chain has read. Its live heap is the
// same whether the blocks carry 32 B or 8 KiB of requests — but for the
// last round or two of blocks, which no chain has read yet.
func TestRestartRetainsRowsNotBytes(t *testing.T) {
	const count = 1024
	retained := func(size int) float64 {
		h := dagtest.NewHarness(4)
		dir := t.TempDir()
		journalPayloadChain(t, h, dir, payloadChain(h, count, size))
		before := dagtest.LiveHeap()
		st, err := store.Open(dir, store.Options{Roster: h.Roster, Sync: store.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		srv, err := core.NewServer(core.Config{
			Roster: h.Roster, Signer: h.Signers[0], Protocol: brb.Protocol{},
			Transport: simnet.New().Transport(0), Clock: node.Clock(),
		})
		if err != nil {
			t.Fatal(err)
		}
		nd, err := node.New(node.Config{Server: srv, Store: st, DisseminateEvery: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		perBlock := float64(dagtest.LiveHeap()-before) / count
		runtime.KeepAlive(nd)
		if srv.DAG().Len() != count || srv.Health() != nil || st.Blocks() != nil {
			t.Fatalf("restored %d of %d blocks (health %v); the store still hands %d out", srv.DAG().Len(), count, srv.Health(), len(st.Blocks()))
		}
		t.Logf("%d B of requests a block: %.0f B retained per block", 2*size, perBlock)
		return perBlock
	}
	small, big := retained(16), retained(4<<10)
	if big-small > 128 {
		t.Fatalf("a restarted node retains %.0f B a block more for 8 KiB of requests than for 32 B", big-small)
	}
}
