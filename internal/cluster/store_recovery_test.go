package cluster_test

import (
	"path/filepath"
	"testing"

	"blockdag/internal/cluster"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dagtest"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

func deliveries(c *cluster.Cluster, server int, label types.Label) int {
	n := 0
	for _, ind := range c.Indications(server) {
		if ind.Label == label {
			n++
		}
	}
	return n
}

func allDelivered(c *cluster.Cluster, label types.Label) bool {
	for _, i := range c.CorrectServers() {
		if deliveries(c, i, label) == 0 {
			return false
		}
	}
	return true
}

// TestClusterRestartFromStore is the end-to-end acceptance test for the
// durable block store: four servers journal every inserted block, one is
// power-cut, its store is read offline as the cut left it, and the server
// restarts from disk — resuming its own chain without equivocating,
// replaying pre-crash deliveries (at-least-once), and reconverging with
// the cluster.
func TestClusterRestartFromStore(t *testing.T) {
	dir := t.TempDir()
	// A replay across rotated WAL segments is store.TestSegmentRotation's.
	c, err := cluster.New(cluster.Options{
		N:        4,
		Protocol: brb.Protocol{},
		Seed:     21,
		StoreDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: a broadcast delivers everywhere; every insert was
	// journaled before its indication.
	c.Request(0, "before", []byte("pre-crash"))
	ok, err := c.RunUntil(20, func() bool { return allDelivered(c, "before") })
	if err != nil || !ok {
		t.Fatalf("phase 1: ok=%v err=%v", ok, err)
	}
	for _, i := range c.CorrectServers() {
		if got, want := c.Stores[i].Len(), c.Servers[i].DAG().Len(); got != want {
			t.Fatalf("server %d journaled %d blocks, DAG has %d", i, got, want)
		}
	}

	// Power-cut s3. Keep its DAG to compare the offline read below with;
	// the store handle itself is abandoned by Crash (power-cut model,
	// file handle released) and must refuse further use.
	s3dag := c.Servers[3].DAG()
	s3store := c.Stores[3]
	preCrash := s3dag.ByBuilder(3)
	if len(preCrash) == 0 {
		t.Fatal("s3 built no blocks before the crash")
	}
	c.Crash(3)
	if err := s3store.Append(preCrash[0]); err == nil {
		t.Fatal("abandoned store accepted an append")
	}

	// Phase 2: survivors progress; s3 misses a broadcast.
	c.Request(1, "during", []byte("while down"))
	ok, err = c.RunUntil(20, func() bool {
		for _, i := range []int{0, 1, 2} {
			if deliveries(c, i, "during") == 0 {
				return false
			}
		}
		return true
	})
	if err != nil || !ok {
		t.Fatalf("phase 2: ok=%v err=%v", ok, err)
	}
	if deliveries(c, 3, "during") != 0 {
		t.Fatal("crashed server delivered")
	}

	// The abandoned store must still recover an interpretable DAG: open
	// the directory read-only, as the power cut left it, and replay the
	// embedded protocol over it.
	offline, err := store.Open(filepath.Join(dir, "s3"), store.Options{Roster: c.Roster, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if offline.Len() != s3dag.Len() {
		t.Fatalf("offline open recovered %d blocks, want %d", offline.Len(), s3dag.Len())
	}
	sawBefore := false
	it, fresh, err := core.OfflineInterpreter(c.Roster, brb.Protocol{},
		func(server types.ServerID, label types.Label, value []byte) {
			if server == 3 && label == "before" && string(value) == "pre-crash" {
				sawBefore = true
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range offline.Blocks() {
		if err := fresh.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := it.InterpretDAG(fresh); err != nil {
		t.Fatal(err)
	}
	if !sawBefore {
		t.Fatal("the abandoned store no longer interprets to the pre-crash delivery")
	}
	if err := offline.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: restart s3 from its store. Restore replays the pre-crash
	// delivery: at-least-once across the crash.
	if err := c.Restart(3); err != nil {
		t.Fatal(err)
	}
	if got := deliveries(c, 3, "before"); got < 2 {
		t.Fatalf("expected replayed pre-crash delivery, got %d", got)
	}

	// Phase 4: the restarted server catches up, participates, and the
	// cluster reconverges to one joint DAG.
	c.Request(2, "after", []byte("post-recovery"))
	ok, err = c.RunUntil(30, func() bool {
		return deliveries(c, 3, "during") >= 1 && allDelivered(c, "after")
	})
	if err != nil || !ok {
		t.Fatalf("phase 4: ok=%v err=%v", ok, err)
	}
	ok, err = c.RunUntil(10, c.Converged)
	if err != nil || !ok {
		t.Fatalf("cluster did not reconverge: ok=%v err=%v", ok, err)
	}

	// No self-equivocation: the restarted server continued its chain, so
	// no DAG anywhere holds two s3 blocks with one sequence number.
	for _, i := range c.CorrectServers() {
		if eqs := dagtest.Forked(c.Servers[i].DAG()); len(eqs) != 0 {
			t.Fatalf("server %d observed equivocations after restart: %v", i, eqs)
		}
	}
	// And the post-restart chain literally extends the pre-crash chain.
	resumed := c.Servers[0].DAG().ByBuilder(3)
	if len(resumed) <= len(preCrash) {
		t.Fatalf("s3 chain did not grow: %d -> %d", len(preCrash), len(resumed))
	}
	for i, b := range preCrash {
		if resumed[i].Ref() != b.Ref() {
			t.Fatalf("s3 chain diverged at seq %d", b.Seq)
		}
	}

	// The restarted server keeps journaling: its store tracks its DAG.
	if got, want := c.Stores[3].Len(), c.Servers[3].DAG().Len(); got != want {
		t.Fatalf("restarted server journaled %d blocks, DAG has %d", got, want)
	}
}

// TestStoreRestartPreservesDeterminism: two clusters with identical seeds,
// one journaling to disk and one not, produce identical DAGs — the store
// is a pure observer of the deterministic state machine.
func TestStoreRestartPreservesDeterminism(t *testing.T) {
	run := func(storeDir string) *cluster.Cluster {
		c, err := cluster.New(cluster.Options{
			N: 4, Protocol: brb.Protocol{}, Seed: 7, StoreDir: storeDir,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Request(0, "x", []byte("v"))
		if err := c.RunRounds(10); err != nil {
			t.Fatal(err)
		}
		return c
	}
	plain := run("")
	durable := run(t.TempDir())
	for _, i := range plain.CorrectServers() {
		a, b := plain.Servers[i].DAG(), durable.Servers[i].DAG()
		if a.Len() != b.Len() || !a.Leq(b) || !b.Leq(a) {
			t.Fatalf("server %d: journaling changed the DAG (%d vs %d blocks)", i, a.Len(), b.Len())
		}
	}
}

// TestStoreSurvivesDoubleRestart: crash, recover, crash again, recover
// again — the second recovery sees the first recovery's appends too.
func TestStoreSurvivesDoubleRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}, Seed: 5, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		label := types.Label([]string{"one", "two"}[round])
		c.Request(0, label, []byte("payload"))
		ok, err := c.RunUntil(25, func() bool { return allDelivered(c, label) })
		if err != nil || !ok {
			t.Fatalf("round %d: ok=%v err=%v", round, ok, err)
		}
		c.Crash(2)
		if err := c.Restart(2); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	ok, err := c.RunUntil(10, c.Converged)
	if err != nil || !ok {
		t.Fatalf("no reconvergence after double restart: ok=%v err=%v", ok, err)
	}
	for _, i := range c.CorrectServers() {
		if eqs := dagtest.Forked(c.Servers[i].DAG()); len(eqs) != 0 {
			t.Fatalf("server %d observed equivocations: %v", i, eqs)
		}
	}
}

// TestRestoredConvictionCountsAlike: a proof the store's head holds comes
// back at a restart as a ban, and the node does not count it as a new ban
// — on the deploy path (a cluster slot restarted
// over its store) and on a bare core + node over a store alike. The two
// paths once disagreed: deploy convicted from the head before the server
// replayed it, and the replay counted a received proof but no ban.
func TestRestoredConvictionCountsAlike(t *testing.T) {
	const byz = 3
	proof := dagtest.Proof(byz)

	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stores[0].AppendEvidence(proof); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	deployed := c.Metrics[0].Get(metrics.PeersBanned)
	if !c.Servers[0].Scores().Banned(byz) {
		t.Fatal("the cluster slot did not restore the ban")
	}

	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEvidence(proof); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(dir, store.Options{Roster: roster}); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	m := &metrics.Metrics{}
	net := simnet.New()
	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signers[1], Protocol: brb.Protocol{},
		Transport: net.Transport(1), Clock: net.Now, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{Server: srv, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	if !srv.Scores().Banned(byz) {
		t.Fatal("the bare node did not restore the ban")
	}
	if bare := m.Get(metrics.PeersBanned); bare != 0 || deployed != 0 {
		t.Fatalf("peers banned = %d on the deploy path, %d on a bare node; want 0 on both", deployed, bare)
	}
}
