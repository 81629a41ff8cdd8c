package core_test

import (
	"runtime"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/store"
)

// retainedPerBlockBound is what a server may keep per block beyond the block
// and its frame, through every layer that sees each block: the DAG's row, its
// columns' share and its index slot (≈ 125 B, pinned alone by
// dag.TestRetainedPerBlock), the interpreter's slot (8 B: a block every
// chain has read keeps no state), gossip's tips (nothing a block), the
// journal (nothing: a count). 152 B measured, 155 B over a store with the
// bytes released; 284 B while the graph's index was a map and its rows
// owned their slices; 386 B while every block kept its interpreter state and
// its graph row its successors; 598 B while interpret and store each kept a
// ref-keyed map of their own beside the DAG's, where a second one would show
// first now.
const retainedPerBlockBound = 190

// TestRetainedPerBlock is dag.TestRetainedPerBlock one level up: 4 096 empty
// blocks on four staggered chains (each cites its parent and the block built
// just before it), built and encoded before the first reading, through a
// whole server — DAG, gossip, interpreter — journaling to a real store.
func TestRetainedPerBlock(t *testing.T) {
	const count = 4096
	h := dagtest.NewHarness(4)
	blocks := make([]*block.Block, 0, count)
	for i := 0; i < count; i++ {
		var last []block.Ref
		if i > 0 {
			last = dagtest.Refs(blocks[i-1])
		}
		if i < 4 {
			blocks = append(blocks, h.GenesisWithPreds(i, last))
		} else {
			blocks = append(blocks, h.Next(i%4, last))
		}
		blocks[i].Encode()
	}
	signers := h.Signers
	st, err := store.Open(t.TempDir(), store.Options{Roster: h.Roster, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	before := dagtest.LiveHeap()
	srv, err := core.NewServer(core.Config{
		Roster: h.Roster, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: &recordingTransport{self: 0}, Clock: func() time.Duration { return 0 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetJournal(st); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := srv.AbsorbVerified(b); err != nil {
			t.Fatal(err)
		}
	}
	perBlock := float64(dagtest.LiveHeap()-before) / count
	runtime.KeepAlive(srv)
	runtime.KeepAlive(blocks)
	runtime.KeepAlive(h)
	interpreted := 0
	for _, b := range blocks {
		if srv.Interpreter().Interpreted(b.Ref()) {
			interpreted++
		}
	}
	if srv.DAG().Len() != count || interpreted != count || st.Len() != count || srv.Health() != nil {
		t.Fatalf("%d blocks in the DAG, %d interpreted, %d journaled (health: %v), want %d", srv.DAG().Len(), interpreted, st.Len(), srv.Health(), count)
	}
	t.Logf("%.0f B retained per block", perBlock)
	if perBlock > retainedPerBlockBound {
		t.Fatalf("a server retains %.0f B per block, bound %d", perBlock, retainedPerBlockBound)
	}
}

// TestRetainedPerReleasedBlock is TestRetainedPerBlock with the bytes in:
// 4 096 blocks carrying two 1 KiB requests each (two labels, so the
// instances are two and the rest of the requests a retired label's), built
// one at a time and dropped by the test once the server has them. Over a
// store every block every chain has read leaves RAM and the store answers
// for it, so what a block leaves behind is its row — the bound of a block
// without bytes. Over the volatile journal, the simulator's, the bytes stay.
func TestRetainedPerReleasedBlock(t *testing.T) {
	const count, size = 4096, 1 << 10
	for _, durable := range []bool{true, false} {
		h := dagtest.NewHarness(4)
		st, err := store.Open(t.TempDir(), store.Options{Roster: h.Roster, Sync: store.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		before := dagtest.LiveHeap()
		srv, err := core.NewServer(core.Config{
			Roster: h.Roster, Signer: h.Signers[0], Protocol: brb.Protocol{},
			Transport: &recordingTransport{self: 0}, Clock: func() time.Duration { return 0 },
		})
		if err != nil {
			t.Fatal(err)
		}
		if durable {
			if err := srv.SetJournal(st); err != nil {
				t.Fatal(err)
			}
		}
		// Four staggered chains, each block citing its parent and the block
		// built just before it.
		data := make([]byte, size)
		var last block.Ref
		parents := make([]*block.Ref, 4)
		for i := 0; i < count; i++ {
			builder := i % 4
			var preds []block.Ref
			if p := parents[builder]; p != nil {
				preds = append(preds, *p)
			}
			if i > 0 {
				preds = append(preds, last)
			}
			data[0], data[1] = byte(i), byte(i>>8)
			reqs := []block.Request{{Label: "retained/a", Data: data}, {Label: "retained/b", Data: data}}
			b := h.Seal(builder, uint64(i/4), preds, reqs...)
			if err := srv.AbsorbVerified(b); err != nil {
				t.Fatal(err)
			}
			ref := b.Ref()
			last, parents[builder] = ref, &ref
		}
		perBlock := float64(dagtest.LiveHeap()-before) / count
		runtime.KeepAlive(srv)
		// Every block cites the one before it: the last interpreted, all were.
		if srv.DAG().Len() != count || !srv.Interpreter().Interpreted(last) || srv.Health() != nil {
			t.Fatalf("%d blocks in the DAG, the last interpreted: %v (health: %v), want %d", srv.DAG().Len(), srv.Interpreter().Interpreted(last), srv.Health(), count)
		}
		_ = st.Close()
		t.Logf("durable %v: %.0f B retained per block of %d B of requests", durable, perBlock, 2*size)
		switch {
		case durable && perBlock > retainedPerBlockBound:
			t.Fatalf("a server over a store retains %.0f B per block, bound %d", perBlock, retainedPerBlockBound)
		case !durable && perBlock < 2*size:
			t.Fatalf("a server over the volatile journal retains %.0f B per block, less than its %d B of requests", perBlock, 2*size)
		}
	}
}
