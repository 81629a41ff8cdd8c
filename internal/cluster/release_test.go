package cluster_test

import (
	"fmt"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// journalReads returns how many released blocks slot's DAG has read back.
func journalReads(c *cluster.Cluster, slot int) int64 {
	for id, f := range dag.Families {
		if f.Name == "journal_block_reads_total" {
			return c.Servers[slot].DAG().Counts().Get(metrics.ID(id))
		}
	}
	panic("no journal_block_reads_total row")
}

// forkAfterRelease runs four servers, the last an equivocator that builds a
// chain reading everything slot 0 holds — so every chain advances and every
// correct slot releases what all have read — and then forks at seq 2, long
// after its parent left RAM: the fork's replay reads released blocks back.
// It returns every correct slot's indications, sorted, and the blocks the
// slots read back from their journals.
func forkAfterRelease(t *testing.T, storeDir string) (inds []string, reads int64) {
	t.Helper()
	const equivocator = 3
	c, err := cluster.New(cluster.Options{
		N: 4, Protocol: brb.Protocol{}, Byzantine: []int{equivocator}, Seed: 9, StoreDir: storeDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer crashAll(c)
	var chain []*block.Block
	build := func(seq uint64, preds []block.Ref, reqs ...block.Request) *block.Block {
		b, err := c.Seal(equivocator, seq, preds, reqs...)
		if err != nil {
			t.Fatal(err)
		}
		c.Send(equivocator, b, 0, 1, 2)
		return b
	}
	c.Request(0, "before", []byte("v"))
	for seq := uint64(0); seq < 12; seq++ {
		var preds []block.Ref
		if seq > 0 {
			preds = append(preds, chain[seq-1].Ref())
		}
		for _, tip := range tips(c.Servers[0].DAG()) {
			if !slices.Contains(preds, tip) {
				preds = append(preds, tip)
			}
		}
		chain = append(chain, build(seq, preds, block.Request{Label: types.Label(fmt.Sprint("chain/", seq)), Data: []byte("c")}))
		if err := c.RunRounds(1); err != nil {
			t.Fatal(err)
		}
	}
	before := journalReads(c, 0)
	build(2, []block.Ref{chain[1].Ref()}, block.Request{Label: "fork", Data: []byte("x")})
	c.Request(1, "after", []byte("w"))
	if err := c.RunRounds(8); err != nil {
		t.Fatal(err)
	}
	for _, i := range c.CorrectServers() {
		// The proof's first half was released: exporting it read it back.
		if !c.Servers[i].DAG().Contains(chain[2].Ref()) || len(dagtest.Forked(c.Servers[i].DAG())) != 1 ||
			len(c.Servers[i].Scores().Proofs()) != 1 {
			t.Fatalf("slot %d does not hold the fork and its proof", i)
		}
		for _, ind := range c.Indications(i) {
			inds = append(inds, fmt.Sprintf("%d %s %x", i, ind.Label, ind.Value))
		}
		reads += journalReads(c, i)
	}
	if journalReads(c, 0) == before {
		t.Fatal("the fork was interpreted without reading a released block back")
	}
	slices.Sort(inds)
	return inds, reads
}

// TestForkReplaysThroughTheJournal: an equivocator's fork arrives after its
// parent's row was released at every correct slot, so its replay reads the
// history back — from each slot's store in one run, from the volatile
// journal in the other — and every slot indicates exactly the same.
func TestForkReplaysThroughTheJournal(t *testing.T) {
	durable, reads := forkAfterRelease(t, t.TempDir())
	volatile, _ := forkAfterRelease(t, "")
	if len(durable) == 0 || !slices.Equal(durable, volatile) {
		t.Fatalf("over stores the slots indicated\n%v\nover the volatile journal\n%v", durable, volatile)
	}
	t.Logf("%d indications, %d blocks read back from the stores", len(durable), reads)
}

// tips is the blocks of d no block of d cites, in insertion order.
func tips(d *dag.DAG) []block.Ref {
	cited := map[block.Ref]bool{}
	for b := range d.All() {
		for _, p := range b.Preds {
			cited[p] = true
		}
	}
	var out []block.Ref
	for b := range d.All() {
		if !cited[b.Ref()] {
			out = append(out, b.Ref())
		}
	}
	return out
}

// crashAll crashes every live slot: the test is over, and what its stores
// hold is not read again.
func crashAll(c *cluster.Cluster) {
	for i := range c.Nodes {
		c.Crash(i)
	}
}
