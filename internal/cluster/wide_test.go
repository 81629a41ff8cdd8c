package cluster

import (
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// TestWideBlockIsRefusedEverywhere: at n = 4, byzantine s3 sends every
// correct server a genesis of 65 535 requests and a block citing s0's
// genesis twice — the two shapes no correct builder builds. Every correct
// server refuses both at decode: it counts them in dag_blocks_rejected_total,
// keeps neither in its DAG, and delivers a label submitted at s0 in the same
// round as a run in which s3 sends nothing.
func TestWideBlockIsRefusedEverywhere(t *testing.T) {
	const label types.Label = "wide/s0"
	run := func(sends bool) (c *Cluster, round int, refused []block.Ref) {
		c, err := New(Options{N: 4, Protocol: brb.Protocol{}, Seed: 7, Byzantine: []int{3}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { stopAll(c) })
		c.Request(0, label, []byte("v"))
		for round = 1; round <= 30; round++ {
			if err := c.RunRounds(1); err != nil {
				t.Fatal(err)
			}
			if round == 1 && sends {
				g0 := c.Servers[0].DAG().ByBuilder(0)[0].Ref()
				wide, err := c.Seal(3, 0, nil, dagtest.Wide(65535)...)
				if err != nil {
					t.Fatal(err)
				}
				twice, err := c.Seal(3, 1, []block.Ref{wide.Ref(), g0, g0})
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range []*block.Block{wide, twice} {
					c.Send(3, b, 0, 1, 2)
					refused = append(refused, b.Ref())
				}
			}
			delivered := true
			for _, i := range c.CorrectServers() {
				delivered = delivered && deliveredAt(c, i, label)
			}
			if delivered {
				return c, round, refused
			}
		}
		t.Fatalf("%s was not delivered everywhere in 30 rounds (s3 sends: %v)", label, sends)
		return nil, 0, nil
	}

	_, quiet, _ := run(false)
	c, loud, refused := run(true)
	if len(refused) == 0 {
		t.Fatal("the label delivered before s3 sent anything")
	}
	if loud != quiet {
		t.Fatalf("delivered in round %d with s3's sends, in round %d without", loud, quiet)
	}
	for _, i := range c.CorrectServers() {
		if got := c.Metrics[i].Get(metrics.BlocksRejected); got != int64(len(refused)) {
			t.Fatalf("s%d counted %d rejected blocks, want %d", i, got, len(refused))
		}
		for _, ref := range refused {
			if c.Servers[i].DAG().Contains(ref) {
				t.Fatalf("s%d holds s3's block %v", i, ref)
			}
		}
	}
}
