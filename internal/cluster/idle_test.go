package cluster

import (
	"slices"
	"testing"

	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/state"
	"blockdag/internal/types"
)

// TestAnIdleClusterBuildsNothing: a 4-node cluster delivers one label at
// every node, then runs 1 000 idle periods, and builds at most n blocks
// after that, one a node to read what its own last block sent: a tick seals
// only with a reason. It sends nothing but those blocks: every chain read
// every out-buffer, so no node announces its head (node.announce). With
// State set, every node builds one block more,
// past the quiet point those blocks leave: every chain passes it, and every
// store prunes to it.
func TestAnIdleClusterBuildsNothing(t *testing.T) {
	const n, idle = 4, 1000
	for _, pruning := range []bool{false, true} {
		machines := make([]*state.Machine, n)
		opts := Options{N: n, Protocol: brb.Protocol{}, Seed: 5, StoreDir: t.TempDir()}
		if pruning {
			opts = stateful(opts, machines)
		}
		c, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		total := func(id metrics.ID) (sum int64) {
			for _, m := range c.Metrics {
				sum += m.Get(id)
			}
			return sum
		}
		built := func() int64 { return total(metrics.BlocksBuilt) }
		c.Request(0, "ℓ", []byte("v"))
		ok, err := c.RunUntil(50, func() bool {
			for i := range n {
				if !slices.ContainsFunc(c.Indications(i), func(ind Indication) bool { return ind.Label == "ℓ" }) {
					return false
				}
			}
			return true
		})
		if err != nil || !ok {
			t.Fatalf("pruning %v: ℓ not indicated at every node (err %v)", pruning, err)
		}
		indicated, sent := built(), total(metrics.WireMessages)
		if err := c.RunRounds(idle); err != nil {
			t.Fatal(err)
		}
		after, most := built()-indicated, int64(n)
		if more := total(metrics.WireMessages) - sent - (n-1)*after; more != 0 {
			t.Fatalf("pruning %v: %d messages beside the blocks' in %d idle periods", pruning, more, idle)
		}
		if pruning {
			most += n
		}
		t.Logf("pruning %v: %d blocks to the indication, %d in %d idle periods after it", pruning, indicated, after, idle)
		if after > most {
			t.Fatalf("pruning %v: %d blocks built in %d idle periods, want at most %d", pruning, after, idle, most)
		}
		if !pruning {
			stopAll(c)
			continue
		}
		for i := range n {
			it, head := c.Servers[i].Interpreter(), c.Stores[i].Head()
			for b := range n {
				id := types.ServerID(b)
				if !it.Passed(id) {
					t.Fatalf("s%d: chain %d has not passed the quiet point", i, b)
				}
				if cut := it.Cut()[b]; cut == 0 || head.Horizon[id] != cut {
					t.Fatalf("s%d: builder %d's store horizon %d, the cut %d", i, b, head.Horizon[id], cut)
				}
			}
		}
		stopAll(c)
	}
}

// TestALastBlockLostBeforeAnIdleSpell: what node 1 sends node 2 after a
// label is indicated everywhere is lost, its last block before an idle spell
// among it, and no tick's empty block comes to cite it. Node 2 lacks it
// through 100 idle periods, and holds it by the time the next request is
// indicated there: that request's blocks cite it, and node 2 asks for it
// (FWD), or node 1 sends it again to a peer whose block does not reach it.
func TestALastBlockLostBeforeAnIdleSpell(t *testing.T) {
	const n = 4
	c, err := New(Options{N: n, Protocol: brb.Protocol{}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)
	indicated := func(label types.Label) func() bool {
		return func() bool {
			for i := range n {
				if !slices.ContainsFunc(c.Indications(i), func(ind Indication) bool { return ind.Label == label }) {
					return false
				}
			}
			return true
		}
	}
	c.Request(0, "ℓ1", []byte("v"))
	if ok, err := c.RunUntil(50, indicated("ℓ1")); err != nil || !ok {
		t.Fatalf("ℓ1 not indicated everywhere (err %v)", err)
	}
	c.Net.SetPartition(func(from, to types.ServerID) bool { return from == 1 && to == 2 })
	if err := c.RunRounds(10); err != nil {
		t.Fatal(err)
	}
	c.Net.SetPartition(nil)
	last, ok := c.Servers[1].DAG().HeadRef(1)
	if !ok || c.Servers[2].DAG().Contains(last) {
		t.Fatal("setup: node 2 holds node 1's last block; nothing was lost")
	}
	if err := c.RunRounds(100); err != nil {
		t.Fatal(err)
	}
	if c.Servers[2].DAG().Contains(last) {
		t.Fatal("setup: the idle spell brought node 2 the lost block")
	}
	if head, _ := c.Servers[1].DAG().HeadRef(1); head != last {
		t.Fatal("setup: node 1 built in the idle spell")
	}
	c.Request(0, "ℓ2", []byte("v"))
	if ok, err := c.RunUntil(50, indicated("ℓ2")); err != nil || !ok {
		t.Fatalf("ℓ2 not indicated everywhere (err %v)", err)
	}
	if !c.Servers[2].DAG().Contains(last) {
		t.Fatal("node 2 indicated the next request without node 1's lost block")
	}
}

// TestAPartitionedPeerIsShownWhatItMissed: node 3 is cut off before a label
// is requested; the others indicate it and fall idle, with what they sent
// node 3 unread on its chain. Through 1 000 idle periods no live node builds
// for node 3: each sends it its head at 4, 8, 16, 32 and 64 periods and
// then every 64, a few dozen messages where a tick's block a period was
// 3 000. Once the partition heals, the next of them leads node 3 to the
// history it missed (FWD), and it indicates the label within 64 periods
// and the few its fetch and its blocks take, with nothing requested since.
func TestAPartitionedPeerIsShownWhatItMissed(t *testing.T) {
	const n, idle, every = 4, 1000, 64
	c, err := New(Options{N: n, Protocol: brb.Protocol{}, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)
	c.Net.SetPartition(func(from, to types.ServerID) bool { return from == 3 || to == 3 })
	has := func(i int) bool {
		return slices.ContainsFunc(c.Indications(i), func(ind Indication) bool { return ind.Label == "ℓ" })
	}
	c.Request(0, "ℓ", []byte("while you were out"))
	if ok, err := c.RunUntil(50, func() bool { return has(0) && has(1) && has(2) }); err != nil || !ok {
		t.Fatalf("ℓ not indicated on the quorum side (err %v)", err)
	}
	count := func(id metrics.ID) (sum [n - 1]int64) {
		for i := range sum {
			sum[i] = c.Metrics[i].Get(id)
		}
		return sum
	}
	blocks, sent := count(metrics.BlocksBuilt), count(metrics.WireMessages)
	if err := c.RunRounds(idle); err != nil {
		t.Fatal(err)
	}
	blocksAfter, sentAfter := count(metrics.BlocksBuilt), count(metrics.WireMessages)
	for i := range n - 1 {
		built, announced := blocksAfter[i]-blocks[i], sentAfter[i]-sent[i]-(n-1)*(blocksAfter[i]-blocks[i])
		t.Logf("s%d: %d blocks and %d further messages in %d idle periods", i, built, announced, idle)
		if built > 1 || announced < 1 || announced > 5+idle/every {
			t.Fatalf("s%d: %d blocks and %d further messages in %d idle periods, want at most 1 block and 1 to %d messages",
				i, built, announced, idle, 5+idle/every)
		}
	}
	if has(3) {
		t.Fatal("node 3 indicated ℓ through the partition")
	}
	c.Net.SetPartition(nil)
	periods := -1
	if ok, err := c.RunUntil(every+10, func() bool { periods++; return has(3) }); err != nil || !ok {
		t.Fatalf("node 3 did not indicate ℓ within %d periods of the heal (err %v)", every+10, err)
	}
	t.Logf("node 3 indicated ℓ %d periods after the heal", periods)
}
