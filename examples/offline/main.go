// Command offline demonstrates the decoupling the paper highlights: the
// block DAG is built online by gossip, but interpreting it is a pure
// function of the DAG — it can happen later, elsewhere, or repeatedly.
//
// The program runs a live cluster, journals one server's DAG into a
// durable block store (the same write-ahead log a production server
// recovers from), reopens it in a fresh process context (new roster
// object, new interpreter, no network), re-interprets it, and verifies that the offline replay reaches exactly the online
// conclusions — including the indications of *other* servers' simulated
// instances, which an auditor could use to check what any server must
// have delivered.
package main

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

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "offline:", err)
		os.Exit(1)
	}
}

func run() error {
	// Phase 1: a live cluster delivers two broadcasts.
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}, Seed: 13})
	if err != nil {
		return err
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
		return err
	}
	if !ok {
		return fmt.Errorf("broadcasts not delivered in 25 rounds")
	}
	fmt.Println("online run complete; every server delivered x and y")

	// Phase 2: journal s1's DAG into a durable block store — the same
	// store a crashed server restores from, here used as the
	// persistence/audit format.
	dir, err := os.MkdirTemp("", "blockdag-offline-example")
	if err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(dir) }()
	d := c.Servers[1].DAG()
	st, err := store.Open(filepath.Join(dir, "s1"), store.Options{Roster: c.Roster})
	if err != nil {
		return err
	}
	for _, b := range d.Blocks() {
		if err := st.Append(b); err != nil {
			_ = st.Close()
			return err
		}
	}
	size, err := st.DiskSize()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("persisted s1's DAG: %d blocks, %d bytes of WAL\n", d.Len(), size)

	// Phase 3: reload and re-interpret offline. Only the roster (public
	// keys) is needed — no signing keys, no network. Open only reads the
	// files; the offline DAG's Insert below validates every block
	// (Definition 3.3, signatures included).
	roster, _, err := crypto.LocalRoster(4)
	if err != nil {
		return err
	}
	loadedStore, err := store.Open(filepath.Join(dir, "s1"), store.Options{Roster: roster})
	if err != nil {
		return err
	}
	loaded := loadedStore.Blocks()
	if err := loadedStore.Close(); err != nil {
		return err
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
		return err
	}
	for _, b := range loaded {
		if err := fresh.Insert(b); err != nil {
			return err
		}
	}
	if err := it.InterpretDAG(fresh); err != nil {
		return err
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
				return fmt.Errorf("online indication %s missing from offline replay", key)
			}
		}
	}
	fmt.Println("\naudit passed: offline interpretation reproduces every online delivery")
	return nil
}
