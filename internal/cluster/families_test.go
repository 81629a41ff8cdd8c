package cluster

import (
	"testing"

	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
)

// TestInsertedBlocksAreInterpreted: every block a server inserts — received,
// own, absorbed from a pull, or restored from its store — is counted once in
// dag_blocks_inserted_total and interpreted, so that one family counts the
// interpreted blocks too.
func TestInsertedBlocksAreInterpreted(t *testing.T) {
	c, err := New(Options{N: 4, Protocol: brb.Protocol{}, StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	c.Request(0, "ℓ", []byte("v"))
	if err := c.RunRounds(6); err != nil {
		t.Fatal(err)
	}
	c.Crash(2)
	if err := c.RunRounds(6); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	if err := pullFrom(c, 2, 0); err != nil {
		t.Fatal(err)
	}
	c.Request(2, "ℓ2", []byte("w"))
	if err := c.RunRounds(6); err != nil {
		t.Fatal(err)
	}
	for _, i := range c.CorrectServers() {
		srv := c.Servers[i]
		ins, refs := c.Metrics[i].Get(metrics.BlocksInserted), srv.DAG().Refs()
		if ins != int64(len(refs)) {
			t.Fatalf("s%d: inserted %d blocks, its DAG holds %d", i, ins, len(refs))
		}
		for _, ref := range refs {
			if !srv.Interpreter().Interpreted(ref) {
				t.Fatalf("s%d: block %v inserted, not interpreted", i, ref)
			}
		}
	}
}
