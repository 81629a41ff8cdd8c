package dag_test

import (
	"runtime"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
)

// staggeredBlocks builds count empty blocks on four chains that take turns,
// each block citing its parent and the block built just before it — the
// shape four servers on staggered timers produce (two references a block).
func staggeredBlocks(count int) (*dagtest.Harness, []*block.Block) {
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
	}
	return h, blocks
}

// retainedPerBlockBound is what a DAG may keep per inserted block beyond the
// block itself: one graph row (key, chain position and two column offsets:
// 56 B), one slot of the index's table (4 B at most 3/4 full), two
// predecessor numbers and a four-entry summary vector in the columns (8 +
// 32 B), a slot cell and a slot of the block slice, slice slack included:
// 125 B measured (257 B while the index was a ref → number map and a row
// owned its predecessor and summary slices, 279 B while a row also kept its
// successors). A ref-keyed map with an entry per block costs ≈ 80–100 B and
// breaks it.
const retainedPerBlockBound = 160

// TestRetainedPerBlock pins the index a node pays per block in the DAG
// layers (graph + dag), blocks excluded: they are built before the first
// reading and outlive the last.
func TestRetainedPerBlock(t *testing.T) {
	const count = 4096
	h, blocks := staggeredBlocks(count)
	before := dagtest.LiveHeap()
	d := dag.New(h.Roster)
	for _, b := range blocks {
		if err := d.InsertVerified(b); err != nil {
			t.Fatal(err)
		}
	}
	perBlock := float64(dagtest.LiveHeap()-before) / count
	runtime.KeepAlive(d)
	runtime.KeepAlive(blocks)
	runtime.KeepAlive(h)
	t.Logf("%.0f B retained per inserted block", perBlock)
	if perBlock > retainedPerBlockBound {
		t.Fatalf("a DAG retains %.0f B per block, bound %d", perBlock, retainedPerBlockBound)
	}
}
