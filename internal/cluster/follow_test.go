package cluster_test

import (
	"bytes"
	"fmt"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/dagtest"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// partitionSlot isolates one slot in both directions.
func partitionSlot(c *cluster.Cluster, slot int) {
	id := types.ServerID(slot)
	c.Net.SetPartition(func(from, to types.ServerID) bool {
		return from == id || to == id
	})
}

// TestClusterLiveFollowerPartitionHeal is the acceptance test for the
// live-follower loop: server 3 is partitioned while the others make
// progress, the partition heals, and the follower converges to the same
// interpretation through one delta pull with ZERO FWD traffic
// — the deterministic isolation a lone poll provides — then rejoins the
// running cluster cleanly.
func TestClusterLiveFollowerPartitionHeal(t *testing.T) {
	c, err := cluster.New(cluster.Options{
		N:        4,
		Protocol: brb.Protocol{},
		Seed:     21,
		StoreDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: a healthy cluster with shared history.
	c.Request(0, "pre", []byte("v0"))
	ok, err := c.RunUntil(20, func() bool { return allDelivered(c, "pre") })
	if err != nil || !ok {
		t.Fatalf("phase 1: ok=%v err=%v", ok, err)
	}

	// Phase 2: server 3 falls off the network; the others keep going.
	partitionSlot(c, 3)
	const during = 5
	for i := 0; i < during; i++ {
		c.Request(i%3, types.Label(fmt.Sprintf("during/%d", i)), []byte(fmt.Sprintf("d%d", i)))
	}
	if err := c.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	lag := c.Servers[0].DAG().Len() - c.Servers[3].DAG().Len()
	if lag < during {
		t.Fatalf("follower only lags %d blocks; partition ineffective", lag)
	}

	// Phase 3: heal, then let the follow loop alone converge the
	// laggard — no dissemination rounds scheduled, so any FWD traffic
	// would be the follower's own.
	c.Net.SetPartition(nil)
	fwdBefore := c.Metrics[3].Get(metrics.FwdRequestsSent)
	c.Net.After(0, c.Nodes[3].FollowPoll)
	c.Net.Run()
	if fwd := c.Metrics[3].Get(metrics.FwdRequestsSent) - fwdBefore; fwd != 0 {
		t.Fatalf("follow convergence cost %d FWD requests, want 0", fwd)
	}
	stats := c.Nodes[3].FollowReport()
	if stats.Deltas == 0 || stats.Blocks < lag {
		t.Fatalf("follow stats %+v; want a delta pull covering the %d-block lag", stats, lag)
	}
	// The follower now holds everything the peers built (its own
	// partition-era blocks make it a superset until gossip spreads
	// them).
	if !c.Servers[0].DAG().Leq(c.Servers[3].DAG()) {
		t.Fatal("follower DAG does not cover the peers' DAG after the follow pull")
	}

	// The follower's own simulated instance consumes the pulled history
	// once its next block references it (Algorithm 2 advances a
	// server's simulation at that server's own chain positions) — one
	// ordinary dissemination round, still with zero FWD traffic from
	// the follower: it is missing nothing.
	if err := c.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	if fwd := c.Metrics[3].Get(metrics.FwdRequestsSent) - fwdBefore; fwd != 0 {
		t.Fatalf("post-follow rounds cost the follower %d FWD requests, want 0", fwd)
	}
	for i := 0; i < during; i++ {
		label := types.Label(fmt.Sprintf("during/%d", i))
		want := deliveredValue(c, 0, label)
		if got := deliveredValue(c, 3, label); !bytes.Equal(got, want) {
			t.Fatalf("follower interprets %s as %q, peers as %q", label, got, want)
		}
	}

	// Phase 4: the healed follower participates in new work, and keeps
	// following without harm.
	c.Request(3, "post", []byte("back"))
	ok, err = c.RunUntil(30, func() bool { return allDelivered(c, "post") && c.Converged() })
	if err != nil || !ok {
		t.Fatalf("phase 4: ok=%v err=%v converged=%v", ok, err, c.Converged())
	}
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterLiveFollowerDeterministic: identical seeds give identical
// follow traces — polls, deltas, pulled blocks, and network counters.
func TestClusterLiveFollowerDeterministic(t *testing.T) {
	run := func() (node.FollowReport, int64, int64) {
		c, err := cluster.New(cluster.Options{
			N:        4,
			Protocol: brb.Protocol{},
			Seed:     8,
			StoreDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		partitionSlot(c, 2)
		c.Request(0, "x", []byte("1"))
		if err := c.RunRounds(10); err != nil {
			t.Fatal(err)
		}
		c.Net.SetPartition(nil)
		if err := c.RunRounds(10); err != nil {
			t.Fatal(err)
		}
		s := c.Net.Stats()
		rep := c.Nodes[2].FollowReport()
		rep.LastErr = nil // an error value, not a count: compared by identity
		return rep, s.Calls, s.CallBytes
	}
	s1, c1, b1 := run()
	s2, c2, b2 := run()
	if s1 != s2 || c1 != c2 || b1 != b2 {
		t.Fatalf("follow diverges across identical seeds: (%+v,%d,%d) vs (%+v,%d,%d)", s1, c1, b1, s2, c2, b2)
	}
}

// TestClusterFollowerThrottledRotates: a peer refusing polls under its
// admission policy costs the follower one poll; rotation reaches an
// honest peer and the follower still converges.
func TestClusterFollowerThrottledRotates(t *testing.T) {
	c, err := cluster.New(cluster.Options{
		N:        4,
		Protocol: brb.Protocol{},
		Seed:     17,
		StoreDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Request(0, "pre", []byte("v"))
	ok, err := c.RunUntil(20, func() bool { return allDelivered(c, "pre") })
	if err != nil || !ok {
		t.Fatalf("setup: ok=%v err=%v", ok, err)
	}

	partitionSlot(c, 3)
	c.Request(0, "during", []byte("w"))
	if err := c.RunRounds(10); err != nil {
		t.Fatal(err)
	}
	lag := c.Servers[0].DAG().Len() - c.Servers[3].DAG().Len()
	if lag == 0 {
		t.Fatal("no lag accumulated")
	}

	// Slots 0 and 1 — the first two peers in slot 3's rotation — now
	// throttle everything; slot 2 stays honest.
	throttler := handlerFunc(func(from types.ServerID, req []byte, st transport.ServerStream) {
		st.Close(syncsvc.ErrThrottled)
	})
	c.Net.RegisterHandler(0, transport.ChanSync, throttler)
	c.Net.RegisterHandler(1, transport.ChanSync, throttler)

	c.Net.SetPartition(nil)
	// Three forced polls walk the rotation 0 → 1 → 2.
	for i := 0; i < 3; i++ {
		c.Net.After(0, c.Nodes[3].FollowPoll)
		c.Net.Run()
	}
	stats := c.Nodes[3].FollowReport()
	if stats.Throttled < 2 {
		t.Fatalf("follow stats %+v; want both throttling peers counted", stats)
	}
	if stats.Blocks < lag {
		t.Fatalf("follow stats %+v; rotation never reached the honest peer (lag %d)", stats, lag)
	}
	// Rotation reached honest slot 2, whose DAG the follower now covers.
	if !c.Servers[2].DAG().Leq(c.Servers[3].DAG()) {
		t.Fatal("follower DAG does not cover the honest peer's DAG")
	}
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterFollowerLyingPeer: with no watermark answer to inflate, what
// is left of a sync peer's lie is the stream itself — tampered, or short.
// A forged block costs the liar the poll and a signal, a stream that
// claims to be complete and is not costs the follower nothing it held; its
// state stays intact and it converges through the honest peers.
func TestClusterFollowerLyingPeer(t *testing.T) {
	c, err := cluster.New(cluster.Options{
		N:        4,
		Protocol: brb.Protocol{},
		Seed:     29,
		StoreDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Request(1, "payload", []byte("real"))
	ok, err := c.RunUntil(20, func() bool { return allDelivered(c, "payload") })
	if err != nil || !ok {
		t.Fatalf("setup: ok=%v err=%v", ok, err)
	}

	// Peer 0 turns malicious on the sync channel: it answers every pull
	// with a signature-flipped block. Peer 1 serves short: "you lack
	// nothing", whatever it holds.
	honest := c.Servers[1].DAG().Blocks()
	// Build the forgery as a fresh unsealed block (no cached frame, so
	// EncodeBatchFrame serializes the doctored fields — copying a sealed
	// block and editing it would stream the original cached frame): the
	// honest block's fields with the sequence number pushed beyond every
	// horizon, under a stale signature that cannot verify for the new
	// contents.
	h := honest[len(honest)/2]
	forged := block.New(h.Builder, 1<<20, h.Preds, h.Requests)
	forged.Sig = append([]byte(nil), h.Sig...)
	c.Net.RegisterHandler(0, transport.ChanSync, handlerFunc(func(from types.ServerID, req []byte, st transport.ServerStream) {
		_ = st.Send(syncsvc.EncodeBatchFrame([]*block.Block{forged}))
		_ = st.Send(syncsvc.EncodeDoneFrame(1))
		st.Close(nil)
	}))
	c.Net.RegisterHandler(1, transport.ChanSync, handlerFunc(func(from types.ServerID, req []byte, st transport.ServerStream) {
		_ = st.Send(syncsvc.EncodeDoneFrame(0))
		st.Close(nil)
	}))

	before := c.Servers[3].DAG().Len()
	// Three forced polls cover the full rotation, so one of them hits
	// each liar; honest peer 2 is in sync (an empty stream, no effect).
	for i := 0; i < 3; i++ {
		c.Net.After(0, c.Nodes[3].FollowPoll)
		c.Net.Run()
	}
	stats := c.Nodes[3].FollowReport()
	if stats.Polls != 3 || stats.Errors != 1 || stats.Deltas != 1 || stats.Blocks != 0 {
		t.Fatalf("follow stats %+v; want three polls, of which the tampered stream failed and nothing was absorbed", stats)
	}
	if dagtest.Signals(c.Servers[3].Scores(), 0) == 0 || dagtest.Signals(c.Servers[3].Scores(), 1) != 0 {
		t.Fatalf("signals: forger %d, short server %d; want only the forger charged",
			dagtest.Signals(c.Servers[3].Scores(), 0), dagtest.Signals(c.Servers[3].Scores(), 1))
	}
	if got := c.Servers[3].DAG().Len(); got != before {
		t.Fatalf("lying peers changed the follower's DAG: %d -> %d blocks", before, got)
	}
	if err := c.Servers[3].Health(); err != nil {
		t.Fatalf("lying peers poisoned the follower: %v", err)
	}

	// The follower keeps rotating; the cluster stays live and
	// convergent through the honest peers.
	c.Request(3, "post", []byte("after"))
	ok, err = c.RunUntil(30, func() bool { return allDelivered(c, "post") && c.Converged() })
	if err != nil || !ok {
		t.Fatalf("post: ok=%v err=%v", ok, err)
	}
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerRotatesPastAForger bounds what a forging sync peer costs a
// follower that rotates round-robin. Slot 3 hears no gossip, so it follows
// by pulls alone, and peer 0 answers every pull with a forged block for 400
// rounds under load. The forger gets no more than its share of the polls,
// the follower's mean lag behind honest peer 2 stays within 30 blocks, and
// once the partition heals slot 3 converges.
func TestFollowerRotatesPastAForger(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		polls, forged, meanLag := followPastAForger(t, seed)
		t.Logf("seed %d: %d polls, %d to the forger, mean lag %.1f blocks", seed, polls, forged, meanLag)
		if forged > (polls+2)/3+1 {
			t.Errorf("seed %d: the forger got %d of %d polls", seed, forged, polls)
		}
		if meanLag > 30 {
			t.Errorf("seed %d: mean lag %.1f blocks, want ≤ 30", seed, meanLag)
		}
	}
}

func followPastAForger(t *testing.T, seed int64) (polls, forged int, meanLag float64) {
	const rounds = 400
	c, err := cluster.New(cluster.Options{
		N:            4,
		Protocol:     brb.Protocol{},
		Seed:         seed,
		StoreDir:     t.TempDir(),
		LoadPerRound: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunRounds(5); err != nil {
		t.Fatal(err)
	}
	// The forgery is TestClusterFollowerLyingPeer's: an honest block's
	// fields pushed past every horizon, under a signature that cannot verify.
	honest := c.Servers[1].DAG().Blocks()
	h := honest[len(honest)/2]
	forgery := block.New(h.Builder, 1<<20, h.Preds, h.Requests)
	forgery.Sig = append([]byte(nil), h.Sig...)
	c.Net.RegisterHandler(0, transport.ChanSync, handlerFunc(func(from types.ServerID, req []byte, st transport.ServerStream) {
		forged++
		_ = st.Send(syncsvc.EncodeBatchFrame([]*block.Block{forgery}))
		_ = st.Send(syncsvc.EncodeDoneFrame(1))
		st.Close(nil)
	}))

	c.Net.SetPartition(func(from, to types.ServerID) bool { return to == 3 })
	before := c.Nodes[3].FollowReport().Polls
	lag := 0
	for r := 0; r < rounds; r++ {
		if err := c.RunRounds(1); err != nil {
			t.Fatal(err)
		}
		lag += c.Servers[2].DAG().Len() - c.Servers[3].DAG().Len()
	}
	polls = c.Nodes[3].FollowReport().Polls - before

	c.Net.SetPartition(nil)
	ok, err := c.RunUntil(60, c.Converged)
	if err != nil || !ok {
		t.Fatalf("seed %d: after the heal ok=%v err=%v", seed, ok, err)
	}
	return polls, forged, float64(lag) / rounds
}

// TestClusterFollowerHoldingAForkIsNotRestreamed keeps the one-call poll's
// trap closed. Slot 3 holds both variants of an equivocator's block; slot 0
// (and 1) hold one, and no evidence, so their vectors advertise that chain.
// A request that just left the forked builder out — what the follower may
// safely skip — would read there as "holds none of it" and be streamed the
// chain again on every poll; the request states the horizon and marks it,
// and three forced polls stream no block at all.
func TestClusterFollowerHoldingAForkIsNotRestreamed(t *testing.T) {
	const equivocator = 2
	c, err := cluster.New(cluster.Options{
		N:         4,
		Protocol:  brb.Protocol{},
		Byzantine: []int{equivocator},
		Seed:      5,
		StoreDir:  t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Request(0, "pre", []byte("v"))
	ok, err := c.RunUntil(20, func() bool { return allDelivered(c, "pre") })
	if err != nil || !ok {
		t.Fatalf("setup: ok=%v err=%v", ok, err)
	}

	a, err := c.Seal(equivocator, 0, nil, block.Request{Label: "fork", Data: []byte("a")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Seal(equivocator, 0, nil, block.Request{Label: "fork", Data: []byte("b")})
	if err != nil {
		t.Fatal(err)
	}
	// Slot 3 hears both and convicts; its evidence relay is lost on the
	// way, so slots 0 and 1 go on holding one innocent-looking block.
	c.Net.SetPartition(func(from, to types.ServerID) bool { return from == 3 })
	c.Send(equivocator, a, 0, 1, 3)
	c.Send(equivocator, b, 3)
	c.Net.Run()
	c.Net.SetPartition(nil)
	if len(c.Servers[3].DAG().Equivocations()) != 1 || len(c.Servers[0].DAG().Equivocations()) != 0 ||
		!c.Servers[0].DAG().Contains(a.Ref()) || c.Servers[0].Evidence().Len() != 0 {
		t.Fatalf("setup: slot 3 sees %d equivocations, slot 0 sees %d and holds %d proofs",
			len(c.Servers[3].DAG().Equivocations()), len(c.Servers[0].DAG().Equivocations()), c.Servers[0].Evidence().Len())
	}

	for i := 1; i <= 3; i++ {
		c.Net.After(0, c.Nodes[3].FollowPoll)
		c.Net.Run()
		if rep := c.Nodes[3].FollowReport(); rep.Polls != i || rep.BehindBy != 0 || rep.Deltas != 0 || rep.Errors != 0 {
			t.Fatalf("poll %d re-streamed a chain the follower holds: %+v", i, rep)
		}
	}
}

// TestClusterFollowerAfterRestart: the follow loop and crash recovery
// compose — a durable slot crashes, restarts from its (stale) store, and
// the follower closes the gap, journaling what it pulls so a second
// restart replays it from disk.
func TestClusterFollowerAfterRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := cluster.New(cluster.Options{
		N:        4,
		Protocol: brb.Protocol{},
		Seed:     41,
		StoreDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Request(0, "pre", []byte("v"))
	ok, err := c.RunUntil(20, func() bool { return allDelivered(c, "pre") })
	if err != nil || !ok {
		t.Fatalf("setup: ok=%v err=%v", ok, err)
	}

	// Crash slot 2; the survivors progress while it is down.
	c.Crash(2)
	c.Request(0, "during", []byte("w"))
	if err := c.RunRounds(10); err != nil {
		t.Fatal(err)
	}

	// Restart from the stale store, then let the follower catch up.
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	lag := c.Servers[0].DAG().Len() - c.Servers[2].DAG().Len()
	if lag == 0 {
		t.Fatal("restart already caught up; nothing to follow")
	}
	c.Net.After(0, c.Nodes[2].FollowPoll)
	c.Net.Run()
	if a, b := c.Servers[2].DAG().Len(), c.Servers[0].DAG().Len(); a != b {
		t.Fatalf("recovered follower has %d blocks, peer has %d", a, b)
	}
	// Pulled blocks were journaled: the store now holds the full DAG.
	if got, want := c.Stores[2].Len(), c.Servers[2].DAG().Len(); got != want {
		t.Fatalf("store journals %d blocks, DAG has %d", got, want)
	}
	// And the slot keeps working.
	c.Request(2, "post", []byte("back"))
	ok, err = c.RunUntil(30, func() bool { return allDelivered(c, "post") && c.Converged() })
	if err != nil || !ok {
		t.Fatalf("post: ok=%v err=%v", ok, err)
	}
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
}

// handlerFunc adapts a function to transport.Handler.
type handlerFunc func(types.ServerID, []byte, transport.ServerStream)

func (f handlerFunc) ServeCall(from types.ServerID, req []byte, st transport.ServerStream) {
	f(from, req, st)
}
