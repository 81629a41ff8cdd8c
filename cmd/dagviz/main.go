// Command dagviz renders a block DAG read back from a durable store (one
// server's store directory, written by dagsim -store-dir, examples/tcp
// -store-dir or any node wired with node.Config.Store) as Graphviz DOT or
// compact ASCII. It opens the store read-only and revalidates every block,
// standing on the store's pruned-history base when a cut left one.
//
// With -protocol and -label it additionally annotates every block with the
// message buffers Ms[in/out, ℓ] that interpretation materializes —
// regenerating the paper's Figure 4 for any instance in any DAG.
//
// Usage:
//
//	dagviz -store run/s0 -n 4 -format dot > dag.dot
//	dagviz -store run/s0 -n 4 -format dot -protocol brb -label inst/0 > fig4.dot
//	dagviz -store run/s0 -n 4 -format ascii
package main

import (
	"flag"
	"fmt"
	"os"

	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/protocols/courier"
	"blockdag/internal/protocols/pbft"
	"blockdag/internal/roster"
	"blockdag/internal/store"
	"blockdag/internal/trace"
	"blockdag/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dagviz:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dir       = flag.String("store", "", "store directory to render (one server's store, e.g. run/s0)")
		n         = flag.Int("n", 4, "dev-fixture roster size the DAG was built with")
		rosterF   = flag.String("roster", "", "roster file the DAG was built under (overrides -n)")
		format    = flag.String("format", "dot", "output format: dot | ascii")
		protoName = flag.String("protocol", "", "annotate buffers for this protocol: brb | pbft | courier")
		label     = flag.String("label", "", "instance label to annotate (with -protocol)")
	)
	flag.Parse()
	if *dir == "" {
		return fmt.Errorf("-store is required")
	}
	if (*protoName == "") != (*label == "") {
		return fmt.Errorf("-protocol and -label go together")
	}

	var r *crypto.Roster
	if *rosterF != "" {
		file, err := roster.Load(*rosterF)
		if err != nil {
			return err
		}
		if r, err = file.Roster(); err != nil {
			return err
		}
	} else {
		var err error
		if r, _, err = crypto.LocalRoster(*n); err != nil {
			return err
		}
	}
	st, err := store.Open(*dir, store.Options{Roster: r, ReadOnly: true})
	if err != nil {
		return err
	}
	defer func() { _ = st.Close() }()
	d := dag.New(r)
	if err := d.SeedBase(st.Head().Base); err != nil {
		return fmt.Errorf("seed base: %w", err)
	}
	for _, b := range st.Blocks() {
		if err := d.Insert(b); err != nil {
			return fmt.Errorf("block %v failed validation: %w", b.Ref(), err)
		}
	}

	var annotate trace.Annotator
	if *protoName != "" {
		proto, err := protocolByName(*protoName)
		if err != nil {
			return err
		}
		buffers, err := trace.InterpretBuffers(d, proto, r.N(), r.F(), types.Label(*label))
		if err != nil {
			return err
		}
		annotate = trace.BufferAnnotator(buffers)
	}

	switch *format {
	case "dot":
		fmt.Print(trace.DOT(d, annotate))
	case "ascii":
		fmt.Print(trace.ASCII(d))
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
	return nil
}

func protocolByName(name string) (protocol.Protocol, error) {
	switch name {
	case "brb":
		return brb.Protocol{}, nil
	case "pbft":
		return pbft.Protocol{}, nil
	case "courier":
		return courier.Protocol{}, nil
	default:
		return nil, fmt.Errorf("unknown protocol %q", name)
	}
}
