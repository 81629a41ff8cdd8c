// Command dagstore operates on durable block store directories offline —
// the operator's tool for the stores written by dagsim -store-dir,
// examples/tcp -store-dir, or any node wired with node.Config.Store.
//
// Usage:
//
//	dagstore inspect -dir path/to/s0 -n 4    # layout, chains, convictions, health
//	dagstore verify  -dir path/to/s0 -n 4    # strict read-only check
//	dagstore render  -dir path/to/s0 -n 4 -format dot > dag.dot
//	dagstore render  -dir path/to/s0 -n 4 -format dot -protocol brb -label inst/0 > fig4.dot
//	dagstore render  -dir path/to/s0 -n 4 -format ascii
//
// Every command opens the store read-only: none repairs, truncates, or
// deletes anything. store.Open only reads (framing and checksums); each
// command then validates the blocks itself, signatures included, by
// inserting them into a DAG of its own, standing on the store's
// pruned-history base when a cut left one — what a restarting node does in
// its live one — and collects the forked slots that rebuild observes.
// verify exits non-zero if the store is corrupt, holds equivocating blocks
// or duplicate records, or carries a torn tail or stale segments
// (conditions inspect merely reports). Nothing here rewrites a store: the
// next read-write open — the node's, when it starts — cuts a torn tail off
// and deletes the segments a crashed cut left, and a duplicate record
// leaves when a cut deletes its segment.
//
// render draws the rebuilt DAG as Graphviz DOT or compact ASCII. With
// -protocol and -label it annotates every block with the message buffers
// Ms[in/out, ℓ] that interpretation materializes — regenerating the paper's
// Figure 4 for any instance in any DAG.
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

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/protocols"
	"blockdag/internal/roster"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/trace"
	"blockdag/internal/types"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dagstore:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: dagstore <inspect|verify|render> -dir DIR [-roster FILE | -n N] " +
		"[render: -format dot|ascii -protocol P -label L]")
}

func run(args []string) error {
	if len(args) < 1 {
		return usage()
	}
	cmd, args := args[0], args[1:]
	if cmd != "inspect" && cmd != "verify" && cmd != "render" {
		return usage()
	}

	fs := flag.NewFlagSet("dagstore "+cmd, flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (one server's store, e.g. runs/s0)")
	n := fs.Int("n", 4, "dev-fixture roster size the store's blocks were signed under")
	rosterF := fs.String("roster", "", "roster file the store's blocks were signed under (overrides -n)")
	var format, protoName, label *string
	if cmd == "render" {
		format = fs.String("format", "dot", "output format: dot | ascii")
		protoName = fs.String("protocol", "", "annotate buffers for this protocol: brb | pbft | courier")
		label = fs.String("label", "", "instance label to annotate (with -protocol)")
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return usage()
	}
	if cmd == "render" && (*protoName == "") != (*label == "") {
		return fmt.Errorf("-protocol and -label go together")
	}
	r, err := loadRoster(*rosterF, *n)
	if err != nil {
		return err
	}
	st, err := store.Open(*dir, store.Options{Roster: r, ReadOnly: true})
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()
	d, forks, err := rebuild(st, r)
	if err != nil {
		return err
	}

	if cmd == "render" {
		return render(d, forks, r, *format, *protoName, *label)
	}
	return inspect(*dir, st, d, forks, cmd == "verify")
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
// the store's pruned-history base, and returns the forked slots the DAG
// observed on the way, in the order it did: each the block that held the
// slot first (nil when it was pruned below the base) and the one that
// claimed it again.
func rebuild(st *store.Store, roster *crypto.Roster) (*dag.DAG, [][2]*block.Block, error) {
	d := dag.New(roster)
	if err := d.SeedBase(st.Head().Base); err != nil {
		return nil, nil, fmt.Errorf("seed base: %w", err)
	}
	var forks [][2]*block.Block
	d.SetOnEquivocation(func(first, second *block.Block) {
		forks = append(forks, [2]*block.Block{first, second})
	})
	for _, b := range st.Blocks() {
		if err := d.Insert(b); err != nil {
			return nil, nil, fmt.Errorf("block %v failed validation: %w", b.Ref(), err)
		}
	}
	return d, forks, nil
}

// render prints the rebuilt DAG as DOT or ASCII; with a protocol and a
// label, DOT annotates every block with that instance's message buffers.
func render(d *dag.DAG, forks [][2]*block.Block, r *crypto.Roster, format, protoName, label string) error {
	var annotate trace.Annotator
	if protoName != "" {
		proto, err := protocols.ByName(protoName)
		if err != nil {
			return err
		}
		buffers, err := trace.InterpretBuffers(d, proto, r.N(), r.F(), types.Label(label))
		if err != nil {
			return err
		}
		annotate = trace.BufferAnnotator(buffers)
	}
	switch format {
	case "dot":
		fmt.Print(trace.DOT(d, annotate))
	case "ascii":
		fmt.Print(trace.ASCII(d, forks))
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	return nil
}

// inspect prints the store's health; in strict mode every repairable or
// suspicious condition becomes an error.
func inspect(dir string, st *store.Store, d *dag.DAG, forks [][2]*block.Block, strict bool) error {
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
	for _, f := range forks {
		first := "pruned"
		if f[0] != nil {
			first = f[0].Ref().String()
		}
		fmt.Printf("EQUIVOCATION s%d at seq %d: %s vs %s\n", f[1].Builder, f[1].Seq, first, f[1].Ref())
	}

	if strict {
		switch {
		case rep.TornBytes > 0:
			return fmt.Errorf("verify: torn tail of %d bytes", rep.TornBytes)
		case rep.StaleSegments > 0:
			return fmt.Errorf("verify: %d stale segments", rep.StaleSegments)
		case rep.Duplicates > 0:
			return fmt.Errorf("verify: %d duplicate records", rep.Duplicates)
		case len(forks) > 0:
			return fmt.Errorf("verify: %d equivocations", len(forks))
		}
		fmt.Println("verify   OK")
	}
	return nil
}
