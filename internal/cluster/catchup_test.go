package cluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// fixed is a block list as a sync server's block source (syncsvc.Source,
// the one a node implements): a hostile server's stream, in list order.
type fixed []*block.Block

func (f fixed) Stream(_ map[types.ServerID]uint64, _ int, send func([]*block.Block) error) error {
	return send(f)
}

// onStore is a store with src registered as its runtime: the one way a
// sync server reaches the rows it streams.
func onStore(t testing.TB, src syncsvc.Source) *store.Store {
	t.Helper()
	r, _, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{Roster: r, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	st.SetRuntime(src)
	return st
}

// deliveredValue returns the first value delivered for a label at one
// server, nil if none.
func deliveredValue(c *cluster.Cluster, server int, label types.Label) []byte {
	for _, ind := range c.Indications(server) {
		if ind.Label == label {
			return ind.Value
		}
	}
	return nil
}

// TestClusterCatchUpAfterDiskLoss is the acceptance test for bulk state
// transfer: a node crashes AND loses its entire store; on restart it
// pulls a peer's store over the sync channel in one deterministic stream,
// journals it, reconverges with the live nodes, and its interpretation
// matches theirs — without re-fetching the backlog one FWD round trip at
// a time.
func TestClusterCatchUpAfterDiskLoss(t *testing.T) {
	dir := t.TempDir()
	// A replay across rotated WAL segments is store.TestSegmentRotation's.
	c, err := cluster.New(cluster.Options{
		N:        4,
		Protocol: brb.Protocol{},
		Seed:     33,
		StoreDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: a working cluster with history.
	const pre = 6
	for i := 0; i < pre; i++ {
		c.Request(i%4, types.Label(fmt.Sprintf("pre/%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	ok, err := c.RunUntil(30, func() bool {
		for i := 0; i < pre; i++ {
			if !allDelivered(c, types.Label(fmt.Sprintf("pre/%d", i))) {
				return false
			}
		}
		return true
	})
	if err != nil || !ok {
		t.Fatalf("phase 1: ok=%v err=%v", ok, err)
	}

	// Phase 2: server 2 dies and its disk is wiped — the total-loss
	// scenario FWD-only recovery handles one block at a time.
	c.Crash(2)
	if err := os.RemoveAll(filepath.Join(dir, "s2")); err != nil {
		t.Fatal(err)
	}
	// The survivors keep making progress while 2 is down.
	const during = 4
	for i := 0; i < during; i++ {
		c.Request(i%2, types.Label(fmt.Sprintf("during/%d", i)), []byte(fmt.Sprintf("d%d", i)))
	}
	if err := c.RunRounds(12); err != nil {
		t.Fatal(err)
	}
	backlog := c.Servers[0].DAG().Len()
	if backlog == 0 {
		t.Fatal("no backlog accumulated")
	}

	// Phase 3: restart via bulk sync from server 0's store.
	sendsBefore := c.Net.Stats().Sends
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	if err := cluster.PullFrom(c, 2, 0); err != nil {
		t.Fatal(err)
	}
	stats := c.Net.Stats()
	if stats.Calls == 0 {
		t.Fatal("recovery did not use the sync channel")
	}
	// The point of bulk transfer: the backlog crossed as a handful of
	// streamed frames, not per-block gossip round trips.
	if gossipSends := stats.Sends - sendsBefore; gossipSends > int64(backlog/10) {
		t.Fatalf("recovery cost %d gossip sends for a %d-block backlog; bulk sync should not FWD per block",
			gossipSends, backlog)
	}
	if got := c.Servers[2].DAG().Len(); got < backlog {
		t.Fatalf("recovered DAG has %d blocks, want at least the %d-block backlog", got, backlog)
	}
	// The wiped store was refilled by the stream.
	if got := c.Stores[2].Len(); got < backlog {
		t.Fatalf("recovered store journals %d blocks, want ≥ %d", got, backlog)
	}

	// The wiped slot re-learned its own chain from the peer and resumes
	// on top of it: the next block it builds is one past the last own
	// block any peer holds — never a sequence number already seen.
	ownBefore := c.Servers[0].DAG().ByBuilder(2)
	lastOwn := ownBefore[len(ownBefore)-1].Seq

	// Phase 4: the recovered server participates again and converges to
	// the same interpretation as the live nodes.
	c.Request(2, "post", []byte("after recovery"))
	ok, err = c.RunUntil(30, func() bool { return allDelivered(c, "post") && c.Converged() })
	if err != nil || !ok {
		t.Fatalf("phase 4: ok=%v err=%v converged=%v", ok, err, c.Converged())
	}
	refs := make(map[block.Ref]int)
	for i, b := range c.Servers[0].DAG().ByBuilder(2) {
		if b.Seq != uint64(i) {
			t.Fatalf("slot 2's chain at a peer: position %d holds seq %d (last pre-wipe seq %d)", i, b.Seq, lastOwn)
		}
		for _, p := range b.Preds {
			if refs[p]++; refs[p] > 1 {
				t.Fatalf("slot 2 referenced block %v twice across the wipe (Lemma A.6)", p)
			}
		}
	}
	if len(dagtest.Forked(c.Servers[0].DAG())) != 0 {
		t.Fatal("the wiped slot forked its own chain")
	}
	for i := 0; i < pre; i++ {
		label := types.Label(fmt.Sprintf("pre/%d", i))
		want := deliveredValue(c, 0, label)
		if got := deliveredValue(c, 2, label); !bytes.Equal(got, want) {
			t.Fatalf("server 2 interprets %s as %q, live nodes as %q", label, got, want)
		}
	}
	for i := 0; i < during; i++ {
		label := types.Label(fmt.Sprintf("during/%d", i))
		want := deliveredValue(c, 0, label)
		if got := deliveredValue(c, 2, label); !bytes.Equal(got, want) {
			t.Fatalf("server 2 interprets %s as %q, live nodes as %q", label, got, want)
		}
	}
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterCatchUpDeterministic: the same seed gives byte-identical
// recovery traces (block counts, network stats) — the sync stream rides
// the simulator's event loop like everything else.
func TestClusterCatchUpDeterministic(t *testing.T) {
	run := func() (int, int64, int64) {
		dir := t.TempDir()
		c, err := cluster.New(cluster.Options{
			N: 4, Protocol: brb.Protocol{}, Seed: 7,
			StoreDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Request(0, "x", []byte("1"))
		if _, err := c.RunUntil(20, func() bool { return allDelivered(c, "x") }); err != nil {
			t.Fatal(err)
		}
		c.Crash(3)
		if err := os.RemoveAll(filepath.Join(dir, "s3")); err != nil {
			t.Fatal(err)
		}
		if err := c.RunRounds(5); err != nil {
			t.Fatal(err)
		}
		if err := c.Restart(3); err != nil {
			t.Fatal(err)
		}
		if err := cluster.PullFrom(c, 3, 1); err != nil {
			t.Fatal(err)
		}
		s := c.Net.Stats()
		return c.Servers[3].DAG().Len(), s.CallFrames, s.CallBytes
	}
	l1, f1, b1 := run()
	l2, f2, b2 := run()
	if l1 != l2 || f1 != f2 || b1 != b2 {
		t.Fatalf("recovery diverges across identical seeds: (%d,%d,%d) vs (%d,%d,%d)", l1, f1, b1, l2, f2, b2)
	}
}

// TestClusterCatchUpRejectsMaliciousServer: a byzantine catch-up server
// streaming a tampered block is caught at that block. The simulator runs
// production's rule, because it runs production's pull: the honest prefix
// before the forgery is kept — in the recovering slot's DAG and on its
// disk — nothing at or after it is, the error names the rejection, and a
// pull from an honest peer completes the recovery.
func TestClusterCatchUpRejectsMaliciousServer(t *testing.T) {
	dir := t.TempDir()
	c, err := cluster.New(cluster.Options{
		N:        4,
		Protocol: brb.Protocol{},
		Seed:     13,
		StoreDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Request(1, "payload", []byte("real"))
	ok, err := c.RunUntil(20, func() bool { return allDelivered(c, "payload") })
	if err != nil || !ok {
		t.Fatalf("setup: ok=%v err=%v", ok, err)
	}

	c.Crash(2)
	if err := os.RemoveAll(filepath.Join(dir, "s2")); err != nil {
		t.Fatal(err)
	}

	// Server 3 turns malicious on the sync channel: it serves the real
	// history with one mid-stream block's signature flipped — exactly
	// what a compromised peer would try to smuggle into a recovering
	// replica.
	honest := c.Servers[3].DAG().Blocks()
	tampered := append([]*block.Block(nil), honest...)
	mid := len(tampered) / 2
	// The flip happens in the wire frame (its last byte is the
	// signature's last byte) and the forgery is rebuilt via Decode: a
	// sealed block streams its cached canonical frame, so tampering with
	// struct fields would never reach the wire.
	enc := append([]byte(nil), tampered[mid].Encode()...)
	enc[len(enc)-1] ^= 0x01
	forged, err := block.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	tampered[mid] = forged
	c.Net.RegisterHandler(3, transport.ChanSync, &syncsvc.Server{Store: onStore(t, fixed(tampered))})

	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	err = cluster.PullFrom(c, 2, 3)
	if err == nil {
		t.Fatal("tampered stream reported a clean recovery")
	}
	if !errors.Is(err, dag.ErrBadSignature) || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("err = %v, want a signature rejection", err)
	}
	// The slot is up on the genuine prefix: everything before the forged
	// block, nothing from it on — in the DAG and on disk alike.
	if c.Servers[2] == nil {
		t.Fatal("slot 2 stayed down; production keeps the prefix and carries on")
	}
	d, st := c.Servers[2].DAG(), c.Stores[2]
	if d.Len() != mid || st.Len() != mid {
		t.Fatalf("kept %d blocks in the DAG and %d on disk, want the %d before the forgery", d.Len(), st.Len(), mid)
	}
	ro, err := store.Open(filepath.Join(dir, "s2"), store.Options{Roster: c.Roster, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	journaled := ro.Blocks()
	if err := ro.Close(); err != nil || len(journaled) != mid {
		t.Fatalf("read %d blocks back from disk (err %v), want %d", len(journaled), err, mid)
	}
	for i, b := range honest {
		if held := d.Contains(b.Ref()); held != (i < mid) || held && journaled[i].Ref() != b.Ref() {
			t.Fatalf("block %d of the stream: in DAG %v, on disk as it came: %v (forgery at %d)", i, held, !held, mid)
		}
	}

	// An honest peer completes the same recovery.
	if err := cluster.PullFrom(c, 2, 0); err != nil {
		t.Fatal(err)
	}
	c.Request(2, "post", []byte("back"))
	ok, err = c.RunUntil(30, func() bool { return allDelivered(c, "post") && c.Converged() })
	if err != nil || !ok {
		t.Fatalf("post-recovery: ok=%v err=%v", ok, err)
	}
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
}
