package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"blockdag/internal/cluster"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// TestReferencesPerBlock guards what "a reference includes its ancestry"
// is for. Four servers disseminate on one period, a quarter of it apart —
// the deployed arrangement (bench/, examples/tcp) — over links much faster
// than the period, so whatever a server has inserted since its last block
// is a chain its newest block reaches: a block cites its parent and about
// one tip, where citing every inserted block would make it n. And a server
// that comes back after missing k ≫ n blocks cites the tips of the backlog
// it pulled, at most one per server, not the backlog. A request each period
// keeps every server building: an idle one builds nothing.
func TestReferencesPerBlock(t *testing.T) {
	const (
		n      = 4
		period = 40 * time.Millisecond
	)
	c, err := cluster.New(cluster.Options{
		N: n, Protocol: brb.Protocol{}, Seed: 18, StoreDir: t.TempDir(),
		Latency: time.Millisecond, Jitter: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// run disseminates every live server each period, server i at i/n of
	// it, for the given number of periods, and submits a request at server 0
	// each period, so that every period turn has a reason to build.
	requests := 0
	run := func(periods int) {
		t.Helper()
		start := c.Net.Now()
		for i, nd := range c.Nodes {
			if nd == nil {
				continue
			}
			for p := 0; p < periods; p++ {
				c.Net.After(time.Duration(p)*period+time.Duration(i)*period/n, func() {
					if i == 0 {
						c.Request(0, types.Label(fmt.Sprintf("ℓ/%d", requests)), []byte("v"))
						requests++
					}
					nd.Tick()
					nd.Disseminate()
				})
			}
		}
		c.Net.Run()
		if err := c.Health(); err != nil {
			t.Fatal(err)
		}
		if c.Net.Now()-start < time.Duration(periods-1)*period {
			t.Fatal("the schedule did not run")
		}
	}

	run(25)
	refs, blocks := 0, 0
	for b := range c.Servers[0].DAG().All() {
		if !b.IsGenesis() {
			refs, blocks = refs+len(b.Preds), blocks+1
		}
	}
	mean := float64(refs) / float64(blocks)
	t.Logf("%d blocks cite %.2f blocks each", blocks, mean)
	if blocks < 90 || mean > 2.5 {
		t.Fatalf("%d blocks cite %.2f blocks each, want at most 2.5", blocks, mean)
	}

	c.Crash(3)
	run(20)
	before := c.Servers[0].DAG().Len()
	if err := c.Restart(3); err != nil {
		t.Fatal(err)
	}
	if err := cluster.PullFrom(c, 3, 0); err != nil {
		t.Fatal(err)
	}
	missed := c.Servers[3].DAG().Len() - len(c.Servers[3].DAG().ByBuilder(3))
	c.Nodes[3].Disseminate()
	own := c.Servers[3].DAG().ByBuilder(3)
	first := own[len(own)-1]
	if missed < before-30 || missed < 10*n {
		t.Fatalf("server 3 pulled %d foreign blocks of %d, want a backlog ≫ n", missed, before)
	}
	t.Logf("first block after missing %d blocks cites %d", missed, len(first.Preds))
	if len(first.Preds) > n+1 {
		t.Fatalf("first block after missing %d blocks cites %d, want at most n+1 = %d", missed, len(first.Preds), n+1)
	}
	run(6)
	if !c.Converged() {
		t.Fatal("cluster did not reconverge around the restarted server")
	}
}
