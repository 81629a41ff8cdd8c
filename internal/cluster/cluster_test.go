package cluster

import (
	"runtime"
	"testing"
	"time"

	"blockdag/internal/crypto"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{N: 0, Protocol: brb.Protocol{}}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := New(Options{N: 4}); err == nil {
		t.Fatal("missing protocol accepted")
	}
}

// TestRunRoundsBuildsBlocks: an idle cluster's nodes build their first
// blocks and then nothing, and a request has every node build until its
// instance is done everywhere.
func TestRunRoundsBuildsBlocks(t *testing.T) {
	c, err := New(Options{N: 3, Protocol: brb.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	lens := func(want int) {
		t.Helper()
		for _, i := range c.CorrectServers() {
			if got := c.Servers[i].DAG().Len(); got != want {
				t.Fatalf("server %d DAG has %d blocks, want %d", i, got, want)
			}
		}
		if !c.Converged() {
			t.Fatal("quiescent cluster not converged")
		}
	}
	if err := c.RunRounds(4); err != nil {
		t.Fatal(err)
	}
	lens(3)
	c.Request(0, "x", []byte("v"))
	if err := c.RunRounds(8); err != nil {
		t.Fatal(err)
	}
	lens(11)
	if err := c.RunRounds(8); err != nil {
		t.Fatal(err)
	}
	lens(11)
}

func TestByzantineSlotsAreNil(t *testing.T) {
	c, err := New(Options{N: 4, Protocol: brb.Protocol{}, Byzantine: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if c.Servers[1] != nil || c.Servers[2] != nil {
		t.Fatal("byzantine slots have servers")
	}
	correct := c.CorrectServers()
	if len(correct) != 2 || correct[0] != 0 || correct[1] != 3 {
		t.Fatalf("CorrectServers = %v", correct)
	}
	if err := c.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	// Only the two correct servers built blocks: their first, and, idle,
	// nothing after.
	if got := c.Servers[0].DAG().Len(); got != 2 {
		t.Fatalf("DAG has %d blocks, want 2", got)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() int64 {
		c, err := New(Options{N: 4, Protocol: brb.Protocol{}, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		c.Request(0, "x", []byte("v"))
		if err := c.RunRounds(6); err != nil {
			t.Fatal(err)
		}
		var wire int64
		for _, m := range c.Metrics {
			wire += m.Get(metrics.WireBytes)
		}
		return wire
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different traffic: %d vs %d", a, b)
	}
}

func TestSealAndSend(t *testing.T) {
	c, err := New(Options{N: 2, Protocol: brb.Protocol{}, Byzantine: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Seal(1, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Send(1, b, 0)
	c.Net.Run()
	if !c.Servers[0].DAG().Contains(b.Ref()) {
		t.Fatal("sealed block not delivered")
	}
}

func TestSigCountersWired(t *testing.T) {
	c, err := New(Options{N: 2, Protocol: brb.Protocol{}})
	if err != nil {
		t.Fatal(err)
	}
	sigs := &c.Sigs
	if err := c.RunRounds(1); err != nil {
		t.Fatal(err)
	}
	if sigs.Get(crypto.Signed) == 0 || sigs.Get(crypto.Verified) == 0 {
		t.Fatalf("counters not wired: signed=%d verified=%d", sigs.Get(crypto.Signed), sigs.Get(crypto.Verified))
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	c, err := New(Options{N: 2, Protocol: brb.Protocol{}, Interval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c.Request(0, "x", []byte("v")) // an idle cluster builds nothing
	calls := 0
	ok, err := c.RunUntil(50, func() bool {
		calls++
		return c.Servers[0].DAG().Len() >= 4
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("condition never met")
	}
	if calls > 10 {
		t.Fatalf("RunUntil kept running: %d checks", calls)
	}
}

// pullFrom takes slot's pull from peer (node.Node.PullFrom) as a stepped
// turn and runs the network until the stream has settled: what a deployed
// node's follower runs, its first poll included, deterministically. It
// returns the pull's error: a stream the slot rejected.
func pullFrom(c *Cluster, slot, peer int) error {
	settled := false
	var pullErr error
	abandon := c.Nodes[slot].PullFrom(types.ServerID(peer), func(_ uint64, _ int, err error) {
		settled, pullErr = true, err
	})
	for !settled && c.Net.Step() {
	}
	if !settled {
		abandon()
	}
	return pullErr
}

// TestEverySlotIsASteppedNode: every correct slot is a node.Node built by
// node.New — at New and after each kind of recovery — and a simulated run
// over durable, following, accountable slots starts no goroutine: the
// runtime's waiting half never runs here.
func TestEverySlotIsASteppedNode(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := New(Options{
		N: 4, Protocol: brb.Protocol{}, Byzantine: []int{3},
		StoreDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	live := func() {
		t.Helper()
		for i := 0; i < 3; i++ {
			if c.Nodes[i] == nil || c.Nodes[i].Server() != c.Servers[i] {
				t.Fatalf("slot %d is not backed by its node", i)
			}
		}
	}
	live()
	if c.Nodes[3] != nil {
		t.Fatal("byzantine slot has a runtime")
	}
	c.Request(0, "ℓ", []byte("v"))
	if err := c.RunRounds(8); err != nil {
		t.Fatal(err)
	}
	c.Crash(1)
	if c.Nodes[1] != nil || c.Servers[1] != nil {
		t.Fatal("crashed slot still has a runtime")
	}
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	c.Crash(2)
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	if err := pullFrom(c, 2, 0); err != nil {
		t.Fatal(err)
	}
	live()
	c.Net.After(0, c.Nodes[0].FollowPoll) // a healthy run shows no lag, so nothing else pulls
	if err := c.RunRounds(8); err != nil {
		t.Fatal(err)
	}
	if polls := c.Nodes[0].FollowReport().Polls; polls == 0 {
		t.Fatal("the run never took a follow turn")
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("simulated run left %d goroutine(s) behind", after-before)
	}
}
