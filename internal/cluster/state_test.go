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
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/state"
	"blockdag/internal/types"
)

// stateful gives every slot a state.Machine fed from its indications the
// way a label-keyed application feeds one (examples/tcp): the label is a
// key, the value its value, and the slot the number of keys. machines[i]
// is slot i's machine, a fresh one at every Listen, as in a restarted
// process.
func stateful(opts Options, machines []*state.Machine) Options {
	opts.slot = func(i int, cfg *deploy.Config) {
		m := state.NewMachine()
		machines[i] = m
		record := cfg.OnIndication
		cfg.OnIndication = func(label types.Label, value []byte) {
			record(label, value)
			m.Tree().Put([]byte(label), value)
			m.AdvanceTo(uint64(m.Tree().Len()))
		}
		cfg.State = m
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
	c, err := New(stateful(Options{N: n, Protocol: brb.Protocol{}, Seed: 9, StoreDir: t.TempDir()}, machines))
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)

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
				if ck := c.Stores[i].Head().State; ck != nil && ck != checkpoints[i] {
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
	before := c.Stores[0].Head().Horizon
	if err := c.RunRounds(11); err != nil { // a seal period and more
		t.Fatal(err)
	}
	after := c.Stores[0].Head().Horizon
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
	commitOf := func(i int) state.Commit {
		ck := c.Stores[i].Head().State
		return ck.Commit
	}
	first := commitOf(0)
	for _, i := range c.CorrectServers() {
		commit := commitOf(i)
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

// liveAcrossACut runs ROADMAP item 4(a)'s scenario on one seed: s1 alone
// keeps state, and so prunes; BRB label "live" is requested at s0 while s2
// is down and s3 partitioned away, so the instance stays live, undelivered,
// through s1's seals; then s1 restarts over its store and s2 comes back.
// cutFirst starts the cluster healthy and runs it until s1 has cut every
// chain before s3 is partitioned and "live" requested; without it s3 is
// partitioned from the start. Either way s1's chain-0 horizon must not
// pass s0's block carrying the request while s1 has not indicated it. It
// reports whether s0, s2 and the restarted s1 indicate "live".
func liveAcrossACut(t *testing.T, seed int64, cutFirst bool) (s0, s1, s2 bool) {
	t.Helper()
	machines := make([]*state.Machine, 4)
	opts := stateful(Options{N: 4, Protocol: brb.Protocol{}, Seed: seed, StoreDir: t.TempDir()}, machines)
	keep := opts.slot
	opts.slot = func(i int, cfg *deploy.Config) {
		if i == 1 {
			keep(i, cfg)
		}
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)
	partition := func() { c.Net.SetPartition(func(from, to types.ServerID) bool { return from == 3 || to == 3 }) }
	if !cutFirst {
		partition()
	}
	// A first delivery, sealed: s1's cuts need a checkpoint to stand on.
	c.Request(0, "pre", []byte("v0"))
	if cutFirst {
		cutAll := func() bool {
			h := c.Stores[1].Head().Horizon
			for id := range types.ServerID(4) {
				if h[id] == 0 {
					return false
				}
			}
			return true
		}
		// Only s1 prunes, so only s1 builds past a quiet point it pended
		// (node's quiet reason): the other chains pass it in the next
		// request's rounds, as an idle cluster's build nothing.
		for k := 0; !cutAll(); k++ {
			if k == 10 {
				t.Fatalf("seed %d: s1 did not cut every chain: horizon %v", seed, c.Stores[1].Head().Horizon)
			}
			c.Request(0, types.Label(fmt.Sprintf("pre/%d", k)), []byte("v0"))
			if err := c.RunRounds(6); err != nil {
				t.Fatal(err)
			}
		}
		partition()
	} else if err := c.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	if c.Stores[1].Head().State == nil {
		t.Fatalf("seed %d: s1 never sealed", seed)
	}
	c.Crash(2)
	c.Request(0, "live", []byte("v1"))
	rounds := 12 // to s1's next seal
	if cutFirst {
		rounds = 24
	}
	if err := c.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	// The instance's first block is s0's that carries the request. A
	// horizon only rises, so one look before the restart covers the run.
	carrier := ^uint64(0)
	for _, b := range c.Servers[0].DAG().ByBuilder(0) {
		for _, r := range b.Requests {
			if r.Label == "live" {
				carrier = b.Seq
			}
		}
	}
	if h := c.Stores[1].Head().Horizon[0]; !deliveredAt(c, 1, "live") && h > carrier {
		t.Fatalf("seed %d: s1 cut chain 0 at %d, past the live instance's block %d", seed, h, carrier)
	}
	if err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	// s1 gets ten rounds past the moment s0 and s2 have delivered.
	if _, err := c.RunUntil(60, func() bool { return deliveredAt(c, 0, "live") && deliveredAt(c, 2, "live") }); err != nil {
		t.Fatal(err)
	}
	if err := c.RunRounds(10); err != nil {
		t.Fatal(err)
	}
	return deliveredAt(c, 0, "live"), deliveredAt(c, 1, "live"), deliveredAt(c, 2, "live")
}

// deliveredAt reports whether slot indicated label.
func deliveredAt(c *Cluster, slot int, label types.Label) bool {
	for _, ind := range c.Indications(slot) {
		if ind.Label == label {
			return true
		}
	}
	return false
}

// TestRestartOverACutKeepsALiveInstance is ROADMAP item 4(a)'s regression
// test, on seeds 1–10, in two cases: with no cut before the instance
// starts, and with s1 having cut every chain first. The node prunes only
// at its interpreter's cut (interpret.Interpreter.Cut), a quiet point
// every chain has read past, so the restarted s1 replays the instance's
// blocks and indicates "live" as s0 and s2 do.
func TestRestartOverACutKeepsALiveInstance(t *testing.T) {
	for _, cutFirst := range []bool{false, true} {
		t.Run(fmt.Sprint("cutFirst=", cutFirst), func(t *testing.T) {
			for seed := int64(1); seed <= 10; seed++ {
				if s0, s1, s2 := liveAcrossACut(t, seed, cutFirst); !s0 || !s1 || !s2 {
					t.Fatalf("seed %d: \"live\" indicated at s0 %v, s1 %v, s2 %v", seed, s0, s1, s2)
				}
			}
		})
	}
}

// cutLag runs four stateful slots for rounds with a BRB request every
// `every` rounds (none with every = 0, and label "held" requested first,
// if hold, on a protocol whose instance for it never reports Done) and
// returns slot 0's heads and horizon, by chain, and its disk size.
func cutLag(t *testing.T, every, rounds int, hold bool) (heads, horizon []uint64, disk int64) {
	t.Helper()
	var proto protocol.Protocol = brb.Protocol{}
	if hold {
		proto = holding{proto}
	}
	machines := make([]*state.Machine, 4)
	c, err := New(stateful(Options{N: 4, Protocol: proto, Seed: 3, StoreDir: t.TempDir()}, machines))
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)
	if hold {
		c.Request(0, "held", []byte("h"))
	}
	c.ScheduleRounds(rounds)
	for r := 0; every > 0 && r < rounds; r += every {
		c.Net.After(time.Duration(r)*50*time.Millisecond, func() {
			c.Request(r%4, types.Label(fmt.Sprintf("k/%d", r)), []byte{byte(r)})
		})
	}
	c.Net.Run()
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	cut := c.Stores[0].Head().Horizon
	for id, head := range c.Servers[0].DAG().Heads() {
		heads, horizon = append(heads, head.Next), append(horizon, cut[types.ServerID(id)])
	}
	if disk, err = c.Stores[0].DiskSize(); err != nil {
		t.Fatal(err)
	}
	return heads, horizon, disk
}

// holding is a protocol whose instance for label "held" never reports
// Done: an instance held live for ever, as a withheld quorum or a
// requester that never completes leaves one.
type holding struct{ protocol.Protocol }

func (h holding) NewProcess(cfg protocol.Config) protocol.Process {
	p := h.Protocol.NewProcess(cfg)
	if cfg.Label == "held" {
		return held{p}
	}
	return p
}

type held struct{ protocol.Process }

func (held) Done() bool { return false }

// TestCutFollowsSparseLoad measures how far the cut trails the chain
// heads at a request every 1, 2, 4 and 8 rounds over 200 rounds of
// 50 ms, and asserts the sparse half: with a request every 4 or 8 rounds
// quiet points come, and the horizon follows the heads within three seal
// periods on every chain. Under denser load instances overlap without a
// pause, so the cut may not move; that is logged, not asserted (ROADMAP
// item 4(a): options (α) and (β) are the route to cutting there).
func TestCutFollowsSparseLoad(t *testing.T) {
	const rounds = 200
	follow := 3 * uint64(node.SealEvery/(50*time.Millisecond))
	for _, every := range []int{1, 2, 4, 8} {
		heads, horizon, disk := cutLag(t, every, rounds, false)
		t.Logf("a request every %d rounds: heads %v, horizon %v, disk %d B", every, heads, horizon, disk)
		if every < 4 {
			continue
		}
		for x := range heads {
			if horizon[x] == 0 || heads[x]-horizon[x] > follow {
				t.Fatalf("a request every %d rounds: chain %d's horizon %d trails its head %d by more than %d", every, x, horizon[x], heads[x], follow)
			}
		}
	}
}

// TestCutUnderAHeldInstance holds one instance live across 100 seals,
// with requests every 8 rounds around it, and logs where slot 0's cut and
// disk stand (ROADMAP item 4(a), "measure the pin"). It asserts only that
// the run stays healthy.
func TestCutUnderAHeldInstance(t *testing.T) {
	rounds := 100 * int(node.SealEvery/(50*time.Millisecond))
	heads, horizon, disk := cutLag(t, 8, rounds, true)
	t.Logf("one instance held live across 100 seals: heads %v, horizon %v, disk %d B", heads, horizon, disk)
}
