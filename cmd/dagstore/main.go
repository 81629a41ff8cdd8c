// Command dagstore operates on durable block store directories offline —
// the operator's tool for the stores written by dagsim -store-dir,
// examples/tcp -store-dir, or any node wired with node.Config.Store.
//
// Usage:
//
//	dagstore inspect -dir path/to/s0 -n 4    # layout, chains, convictions, health
//	dagstore verify  -dir path/to/s0 -n 4    # strict read-only check
//
// Both open the store read-only: they never repair, truncate, or delete
// anything. store.Open only reads (framing and checksums); each command
// then validates the blocks itself, signatures included, by inserting them
// into a DAG of its own — what a restarting node does in its live one.
// verify exits non-zero if the store is corrupt, holds equivocating blocks
// or duplicate records, or carries a torn tail or stale segments
// (conditions inspect merely reports). Nothing here rewrites a store: the
// next read-write open — the node's, when it starts — cuts a torn tail off
// and deletes the segments a crashed cut left, and a duplicate record
// leaves when a cut deletes its segment.
//
// The roster the blocks are validated against comes from -roster (a
// dagroster-generated roster file — the production path) or, for stores
// written by the dev fixture, from -n via the deterministic local
// identities.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/roster"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dagstore:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: dagstore <inspect|verify> -dir DIR [-roster FILE | -n N]")
}

func run(args []string) error {
	if len(args) < 1 {
		return usage()
	}
	cmd, args := args[0], args[1:]

	fs := flag.NewFlagSet("dagstore "+cmd, flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (one server's store, e.g. runs/s0)")
	n := fs.Int("n", 4, "dev-fixture roster size the store's blocks were signed under")
	rosterF := fs.String("roster", "", "roster file the store's blocks were signed under (overrides -n)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return usage()
	}
	r, err := loadRoster(*rosterF, *n)
	if err != nil {
		return err
	}

	switch cmd {
	case "inspect":
		return inspect(*dir, r, false)
	case "verify":
		return inspect(*dir, r, true)
	default:
		return usage()
	}
}

// loadRoster resolves the validation roster: a roster file when given,
// the deterministic dev identities otherwise.
func loadRoster(path string, n int) (*crypto.Roster, error) {
	if path != "" {
		f, err := roster.Load(path)
		if err != nil {
			return nil, err
		}
		return f.Roster()
	}
	r, _, err := crypto.LocalRoster(n)
	return r, err
}

// rebuild validates the store's blocks (Definition 3.3, signatures
// included) by inserting them, in file order, into a fresh DAG standing on
// the store's pruned-history base.
func rebuild(st *store.Store, roster *crypto.Roster) (*dag.DAG, error) {
	d := dag.New(roster)
	if err := d.SeedBase(st.Head().Base); err != nil {
		return nil, fmt.Errorf("seed base: %w", err)
	}
	for _, b := range st.Blocks() {
		if err := d.Insert(b); err != nil {
			return nil, fmt.Errorf("block %v failed validation: %w", b.Ref(), err)
		}
	}
	return d, nil
}

// inspect opens the store read-only and prints its health; in strict mode
// every repairable or suspicious condition becomes an error.
func inspect(dir string, roster *crypto.Roster, strict bool) error {
	st, err := store.Open(dir, store.Options{Roster: roster, ReadOnly: true})
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()
	d, err := rebuild(st, roster)
	if err != nil {
		return err
	}
	rep := st.Report()
	size, err := st.DiskSize()
	if err != nil {
		return err
	}

	fmt.Printf("store    %s\n", dir)
	head := st.Head()
	fmt.Printf("disk     %d bytes in %d segments", size, rep.Segments)
	if rep.HasSnapshot || len(head.Evidence) > 0 {
		fmt.Printf(" and a head")
	}
	fmt.Println()
	fmt.Printf("blocks   %d distinct, all signatures and references revalidated\n", rep.Blocks)
	if rep.Duplicates > 0 {
		fmt.Printf("         %d duplicate records (leave when a cut deletes their segment)\n", rep.Duplicates)
	}
	if rep.TornBytes > 0 {
		fmt.Printf("         torn tail: %d bytes (repaired on next read-write open)\n", rep.TornBytes)
	}
	if rep.StaleSegments > 0 {
		fmt.Printf("         %d stale files a crashed cut left (swept on next read-write open)\n", rep.StaleSegments)
	}

	// Pruned stores: report the horizon, base table, and journaled state
	// commitment, and prove the commitment's chunks actually rebuild the
	// claimed root — the check a joiner's snapshot install relies on.
	if horizon := head.Horizon; len(horizon) > 0 {
		ids := make([]int, 0, len(horizon))
		for id := range horizon {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		fmt.Printf("pruned   horizon:")
		for _, id := range ids {
			fmt.Printf(" s%d<%d", id, horizon[types.ServerID(id)])
		}
		fmt.Printf(" (%d base stand-ins)\n", len(head.Base))
	}
	if ckpt := head.State; ckpt != nil {
		fmt.Printf("state    commit at slot %d, root %x, %d chunks\n",
			ckpt.Slot, ckpt.Root[:8], len(ckpt.Chunks))
		if _, rebuildErr := state.Import(ckpt.Root, ckpt.Chunks); rebuildErr != nil {
			if strict {
				return fmt.Errorf("verify: state checkpoint does not rebuild its root: %w", rebuildErr)
			}
			fmt.Printf("         WARNING: chunks do not rebuild the root: %v\n", rebuildErr)
		} else {
			fmt.Printf("         chunks verified: content rebuilds the committed root\n")
		}
	}

	// The convictions the head holds, each proof verified by Open.
	for _, p := range head.Evidence {
		fmt.Printf("banned   s%d: forked seq %d\n", p.Equivocator(), p.First.Seq)
	}

	// Summarize chains and expose equivocations.
	builders := make(map[types.ServerID]int)
	for _, b := range st.Blocks() {
		builders[b.Builder]++
	}
	ids := make([]int, 0, len(builders))
	for id := range builders {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		chain := d.ByBuilder(types.ServerID(id))
		fmt.Printf("chain    s%d: %d blocks, seq %d..%d\n",
			id, len(chain), chain[0].Seq, chain[len(chain)-1].Seq)
	}
	eqs := d.Equivocations()
	for _, e := range eqs {
		fmt.Printf("EQUIVOCATION s%d at seq %d: %s vs %s\n",
			e.Builder, e.Seq, e.Refs[0], e.Refs[1])
	}

	if strict {
		switch {
		case rep.TornBytes > 0:
			return fmt.Errorf("verify: torn tail of %d bytes", rep.TornBytes)
		case rep.StaleSegments > 0:
			return fmt.Errorf("verify: %d stale segments", rep.StaleSegments)
		case rep.Duplicates > 0:
			return fmt.Errorf("verify: %d duplicate records", rep.Duplicates)
		case len(eqs) > 0:
			return fmt.Errorf("verify: %d equivocations", len(eqs))
		}
		fmt.Println("verify   OK")
	}
	return nil
}
