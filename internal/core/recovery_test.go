package core_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

// TestCrashRecovery exercises the crash-recovery path the paper's
// Section 7 discusses: a server crashes, restarts from its persisted DAG,
// resumes its own chain without equivocating, catches up on broadcasts it
// missed, and replays (at-least-once) the deliveries it had already made.
func TestCrashRecovery(t *testing.T) {
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}, Seed: 17, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: a broadcast delivers everywhere.
	c.Request(0, "before", []byte("pre-crash"))
	ok, err := c.RunUntil(20, func() bool { return allDelivered(c, "before") })
	if err != nil || !ok {
		t.Fatalf("phase 1: ok=%v err=%v", ok, err)
	}

	// Crash s3; its store holds its state.
	preCrashChain := c.Servers[3].DAG().ByBuilder(3)
	c.Crash(3)

	// Phase 2: the survivors keep going; s3 misses a broadcast.
	c.Request(1, "during", []byte("while down"))
	survivors := func() bool {
		for _, i := range []int{0, 1, 2} {
			if len(deliveredAt(c, i, "during")) == 0 {
				return false
			}
		}
		return true
	}
	ok, err = c.RunUntil(20, survivors)
	if err != nil || !ok {
		t.Fatalf("phase 2: ok=%v err=%v", ok, err)
	}
	if len(deliveredAt(c, 3, "during")) != 0 {
		t.Fatal("crashed server delivered")
	}

	// Phase 3: restart s3 over its store.
	if err := c.Restart(3); err != nil {
		t.Fatal(err)
	}
	// Replay re-indicated the pre-crash delivery (at-least-once).
	if got := deliveredAt(c, 3, "before"); len(got) < 2 {
		t.Fatalf("expected replayed pre-crash delivery, got %d", len(got))
	}

	// Phase 4: the recovered server catches up and participates.
	c.Request(2, "after", []byte("post-recovery"))
	ok, err = c.RunUntil(30, func() bool {
		return len(deliveredAt(c, 3, "during")) >= 1 && allDelivered(c, "after")
	})
	if err != nil || !ok {
		t.Fatalf("phase 4: ok=%v err=%v", ok, err)
	}
	for _, label := range []types.Label{"during", "after"} {
		for _, i := range c.CorrectServers() {
			vals := deliveredAt(c, i, label)
			if len(vals) == 0 {
				t.Fatalf("server %d missing delivery on %s", i, label)
			}
		}
	}
	if !bytes.Equal(deliveredAt(c, 3, "during")[0], []byte("while down")) {
		t.Fatal("recovered server delivered wrong value")
	}

	// The recovered chain continues the old one: no equivocation by s3
	// in anyone's DAG, and s3's chain extends the pre-crash tip.
	for _, i := range c.CorrectServers() {
		if eqs := dagtest.Forked(c.Servers[i].DAG()); len(eqs) != 0 {
			t.Fatalf("server %d sees equivocators %v after recovery", i, eqs)
		}
	}
	postChain := c.Servers[3].DAG().ByBuilder(3)
	if len(postChain) <= len(preCrashChain) {
		t.Fatal("recovered server never extended its chain")
	}
	for i, b := range preCrashChain {
		if postChain[i].Ref() != b.Ref() {
			t.Fatalf("recovered chain diverges at seq %d", i)
		}
	}

	// No duplicate message delivery to the embedded protocol: deliveries
	// per label at s3 are 1 live (+1 replayed for "before").
	if got := deliveredAt(c, 3, "after"); len(got) != 1 {
		t.Fatalf("post-recovery label delivered %d times at s3", len(got))
	}
}

// TestRecoverFromEmptyLog: a server that crashed before disseminating
// anything restarts cleanly as a newcomer.
func TestRecoverFromEmptyLog(t *testing.T) {
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(3)
	c.Request(0, "x", []byte("v"))
	ok, err := c.RunUntil(20, func() bool {
		for _, i := range []int{0, 1, 2} {
			if len(deliveredAt(c, i, "x")) == 0 {
				return false
			}
		}
		return true
	})
	if err != nil || !ok {
		t.Fatalf("survivors: ok=%v err=%v", ok, err)
	}
	if err := c.Restart(3); err != nil {
		t.Fatal(err)
	}
	ok, err = c.RunUntil(30, func() bool { return len(deliveredAt(c, 3, "x")) == 1 })
	if err != nil || !ok {
		t.Fatalf("newcomer catch-up: ok=%v err=%v", ok, err)
	}
}

// TestRestoreRejectsCorruptLog: restoring from tampered blocks fails
// loudly instead of building on bad state.
func TestRestoreRejectsCorruptLog(t *testing.T) {
	dir := t.TempDir()
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}, Seed: 29, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	stored := c.Servers[3].DAG().Blocks()
	// Tamper: re-decode one block and corrupt its signature.
	enc := bytes.Clone(stored[0].Encode()) // a copy: Encode's bytes are the stored block
	enc[len(enc)-1] ^= 0xff
	bad, err := block.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]*block.Block{bad}, stored[1:]...)
	c.Crash(3)
	// s3's store now holds the tampered log.
	s3 := filepath.Join(dir, "s3")
	if err := os.RemoveAll(s3); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(s3, store.Options{Roster: c.Roster})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range tampered {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(3); err == nil {
		t.Fatal("recovery from a tampered log succeeded")
	}
}

// deliveredAt returns the values delivered for one label at one server.
func deliveredAt(c *cluster.Cluster, server int, label types.Label) [][]byte {
	var out [][]byte
	for _, ind := range c.Indications(server) {
		if ind.Label == label {
			out = append(out, ind.Value)
		}
	}
	return out
}
