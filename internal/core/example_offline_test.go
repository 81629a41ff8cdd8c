package core_test

import (
	"fmt"
	"os"
	"path/filepath"

	"blockdag/internal/cluster"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

// Example_offline demonstrates the decoupling the paper highlights: the
// block DAG is built online by gossip, but interpreting it is a pure
// function of the DAG — it can happen later, elsewhere, or repeatedly.
//
// The example runs a live cluster, journals one server's DAG into a
// durable block store (the same write-ahead log a production server
// recovers from), reopens it in a fresh context (new roster object, new
// interpreter, no network), re-interprets it, and verifies that the
// offline replay reaches exactly the online conclusions — including the
// indications of *other* servers' simulated instances, which an auditor
// could use to check what any server must have delivered.
func Example_offline() {
	// Phase 1: a live cluster delivers two broadcasts.
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}, Seed: 13})
	if err != nil {
		fmt.Println(err)
		return
	}
	c.Request(0, "x", []byte("first"))
	c.Request(3, "y", []byte("second"))
	ok, err := c.RunUntil(25, func() bool {
		for _, i := range c.CorrectServers() {
			if len(c.Indications(i)) < 2 {
				return false
			}
		}
		return true
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	if !ok {
		fmt.Println("broadcasts not delivered in 25 rounds")
		return
	}
	fmt.Println("online run complete; every server delivered x and y")

	// Phase 2: journal s1's DAG into a durable block store — the same
	// store a crashed server restores from, here used as the
	// persistence/audit format.
	dir, err := os.MkdirTemp("", "blockdag-offline-example")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer func() { _ = os.RemoveAll(dir) }()
	d := c.Servers[1].DAG()
	st, err := store.Open(filepath.Join(dir, "s1"), store.Options{Roster: c.Roster})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, b := range d.Blocks() {
		if err := st.Append(b); err != nil {
			_ = st.Close()
			fmt.Println(err)
			return
		}
	}
	size, err := st.DiskSize()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("persisted s1's DAG: %d blocks, %d bytes of WAL\n", d.Len(), size)

	// Phase 3: reload and re-interpret offline. Only the roster (public
	// keys) is needed — no signing keys, no network. Open only reads the
	// files; the offline DAG's Insert below validates every block
	// (Definition 3.3, signatures included).
	roster, _, err := crypto.LocalRoster(4)
	if err != nil {
		fmt.Println(err)
		return
	}
	loadedStore, err := store.Open(filepath.Join(dir, "s1"), store.Options{Roster: roster})
	if err != nil {
		fmt.Println(err)
		return
	}
	loaded := loadedStore.Blocks()
	if err := loadedStore.Close(); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("reloaded %d blocks\n", len(loaded))

	type delivery struct {
		server types.ServerID
		label  types.Label
		value  string
	}
	var replay []delivery
	it, fresh, err := core.OfflineInterpreter(roster, brb.Protocol{},
		func(server types.ServerID, label types.Label, value []byte) {
			replay = append(replay, delivery{server, label, string(value)})
		})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, b := range loaded {
		if err := fresh.Insert(b); err != nil {
			fmt.Println(err)
			return
		}
	}
	if err := it.InterpretDAG(fresh); err != nil {
		fmt.Println(err)
		return
	}

	fmt.Println("\noffline replay indications (all simulated servers):")
	for _, dlv := range replay {
		fmt.Printf("  %s delivered %q on %s\n", dlv.server, dlv.value, dlv.label)
	}

	// Phase 4: audit — the online indications of every correct server
	// must appear in the offline replay.
	want := make(map[string]bool)
	for _, dlv := range replay {
		want[fmt.Sprintf("%s|%s|%s", dlv.server, dlv.label, dlv.value)] = true
	}
	for _, i := range c.CorrectServers() {
		for _, ind := range c.Indications(i) {
			key := fmt.Sprintf("%s|%s|%s", types.ServerID(i), ind.Label, ind.Value)
			if !want[key] {
				fmt.Printf("online indication %s missing from offline replay\n", key)
				return
			}
		}
	}
	fmt.Println("\naudit passed: offline interpretation reproduces every online delivery")
	// Output:
	// online run complete; every server delivered x and y
	// persisted s1's DAG: 16 blocks, 1302 bytes of WAL
	// reloaded 16 blocks
	//
	// offline replay indications (all simulated servers):
	//   s1 delivered "first" on x
	//   s1 delivered "second" on y
	//   s0 delivered "first" on x
	//   s0 delivered "second" on y
	//   s3 delivered "first" on x
	//   s3 delivered "second" on y
	//   s2 delivered "first" on x
	//   s2 delivered "second" on y
	//
	// audit passed: offline interpretation reproduces every online delivery
}
