package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/deploy"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/state"
	"blockdag/internal/types"
)

// stateful gives every slot a state.Machine fed from its indications the
// way a label-keyed application feeds one (examples/tcp): the label is a
// key, the value its value, and the slot the number of keys. keep is the
// slot's PruneKeepSeqs. machines[i] is slot i's machine, a fresh one at
// every Listen, as in a restarted process.
func stateful(opts Options, keep uint64, machines []*state.Machine) Options {
	opts.slot = func(i int, cfg *deploy.Config) {
		m := state.NewMachine(0)
		machines[i] = m
		record := cfg.OnIndication
		cfg.OnIndication = func(label types.Label, value []byte) {
			record(label, value)
			m.Tree().Put([]byte(label), value)
			m.SealAt(uint64(m.Tree().Len()))
		}
		cfg.State, cfg.PruneKeepSeqs = m, keep
	}
	return opts
}

// sameHeads reports whether every live slot's DAG has the same chain
// heads: what converged means once stores are cut, a restarted slot
// holding its pruned history as the base's stand-ins.
func sameHeads(c *Cluster) bool {
	correct := c.CorrectServers()
	for _, i := range correct[1:] {
		if !slices.Equal(c.Servers[i].DAG().Heads(), c.Servers[correct[0]].DAG().Heads()) {
			return false
		}
	}
	return true
}

// TestSimulatorSealsPrunesAndRestartsOverACut: a simulated slot runs a
// deployed node's state tier on the virtual clock. Every slot seals once a
// node.SealEvery while requests flow; with nothing in flight its store's
// horizon keeps rising as it prunes; a slot crashed and restarted replays
// over its cut and converges with the others; every slot ends on one
// sealed root; and two runs of one seed are byte-identical.
func TestSimulatorSealsPrunesAndRestartsOverACut(t *testing.T) {
	a, b := sealPruneRestart(t), sealPruneRestart(t)
	if a != b {
		t.Fatalf("one seed, two runs:\n%s\n%s", a, b)
	}
	t.Logf("digests: %s", a)
}

// sealPruneRestart runs the scenario once and returns the digests of what
// it left behind: the sealed roots, every slot's blocks and its
// indications.
func sealPruneRestart(t *testing.T) string {
	const (
		n        = 4
		interval = 50 * time.Millisecond
		loaded   = 25 // rounds with a request each: seals at 0.5 and 1 s
	)
	machines := make([]*state.Machine, n)
	c, err := New(stateful(Options{N: n, Protocol: brb.Protocol{}, Seed: 9, StoreDir: t.TempDir()}, 4, machines))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A request every round keeps each machine's frontier moving, so a
	// slot's checkpoint changes at each of its seals: right after its Tick,
	// at k·SealEvery plus its 1 ms-a-slot stagger.
	sealed := make([][]time.Duration, n)
	checkpoints := make([]any, n)
	c.ScheduleRounds(loaded)
	for r := 0; r < loaded; r++ {
		at := time.Duration(r) * interval
		c.Net.After(at, func() { c.Request(r%n, types.Label(fmt.Sprintf("k/%d", r)), []byte{byte(r)}) })
		for i := 0; i < n; i++ {
			c.Net.After(at+time.Duration(i)*time.Millisecond, func() {
				if ck := c.Stores[i].StateCheckpoint(); ck != nil && ck != checkpoints[i] {
					sealed[i], checkpoints[i] = append(sealed[i], c.Net.Now()), ck
				}
			})
		}
	}
	c.Net.Run()
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	for i, at := range sealed {
		var want []time.Duration
		for k := time.Duration(1); k <= 2; k++ {
			want = append(want, k*node.SealEvery+time.Duration(i)*time.Millisecond)
		}
		if !slices.Equal(at, want) {
			t.Fatalf("slot %d sealed at %v, want %v", i, at, want)
		}
	}

	// Nothing in flight: the chains grow, and each slot's cut follows them.
	delivered := func() bool {
		for _, i := range c.CorrectServers() {
			if c.Metrics[i].Get(metrics.InstancesLive) != 0 || machines[i].Tree().Len() != loaded {
				return false
			}
		}
		return true
	}
	if ok, err := c.RunUntil(20, delivered); err != nil || !ok {
		t.Fatalf("requests not all delivered: ok=%v err=%v", ok, err)
	}
	before := c.Stores[0].Horizon()
	if err := c.RunRounds(11); err != nil { // a seal period and more
		t.Fatal(err)
	}
	after := c.Stores[0].Horizon()
	for id := range n {
		if b := types.ServerID(id); after[b] <= before[b] {
			t.Fatalf("idle slot 0's horizon went %v → %v: no cut of chain %d", before, after, id)
		}
	}

	// Slot 1 loses power, the others go on, and it restarts over its cut.
	c.Crash(1)
	c.Request(0, "during", []byte("d"))
	if err := c.RunRounds(10); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if rep := c.Nodes[1].RecoveryReport(); !rep.Store.HasSnapshot || machines[1].Tree().Len() < loaded {
		t.Fatalf("restart did not stand on its cut: report %+v, %d keys restored", rep.Store, machines[1].Tree().Len())
	}
	c.Request(1, "after", []byte("a"))
	converged := func() bool {
		return sameHeads(c) && machines[1].Tree().Len() == loaded+2 && machines[0].Tree().Len() == loaded+2
	}
	if ok, err := c.RunUntil(60, converged); err != nil || !ok {
		t.Fatalf("restarted slot did not converge: ok=%v err=%v", ok, err)
	}
	// A seal period and more: every slot has sealed what it holds now.
	if err := c.RunRounds(11); err != nil {
		t.Fatal(err)
	}

	roots, blocks, inds := sha256.New(), sha256.New(), sha256.New()
	first := c.Nodes[0].ServedSnapshot().Signed.Commit
	for _, i := range c.CorrectServers() {
		commit := c.Nodes[i].ServedSnapshot().Signed.Commit
		if commit != first {
			t.Fatalf("slot %d sealed slot %d root %x, slot 0 slot %d root %x", i, commit.Slot, commit.Root[:4], first.Slot, first.Root[:4])
		}
		fmt.Fprintf(roots, "s%d %d %x\n", i, commit.Slot, commit.Root)
		refs := c.Servers[i].DAG().Refs()
		slices.SortFunc(refs, func(a, b block.Ref) int { return bytes.Compare(a[:], b[:]) })
		for _, ref := range refs {
			blocks.Write(ref[:])
		}
		for _, ind := range c.Indications(i) {
			fmt.Fprintf(inds, "s%d %q %q\n", i, ind.Label, ind.Value)
		}
	}
	return fmt.Sprintf("roots=%s blocks=%s indications=%s",
		hex.EncodeToString(roots.Sum(nil)[:8]), hex.EncodeToString(blocks.Sum(nil)[:8]), hex.EncodeToString(inds.Sum(nil)[:8]))
}
