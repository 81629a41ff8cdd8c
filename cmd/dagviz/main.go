// Command dagviz renders a persisted block DAG (written with
// trace.WriteDAG, e.g. by cmd/dagsim -dump) as Graphviz DOT or compact
// ASCII.
//
// With -protocol and -label it additionally annotates every block with the
// message buffers Ms[in/out, ℓ] that interpretation materializes —
// regenerating the paper's Figure 4 for any instance in any DAG.
//
// Usage:
//
//	dagviz -in dag.bin -n 4 -format dot > dag.dot
//	dagviz -in dag.bin -n 4 -format dot -protocol brb -label ℓ1 > fig4.dot
//	dagviz -in dag.bin -n 4 -format ascii
package main

import (
	"flag"
	"fmt"
	"os"

	"blockdag/internal/crypto"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/protocols/courier"
	"blockdag/internal/protocols/pbft"
	"blockdag/internal/roster"
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
		in        = flag.String("in", "", "path to a DAG dump (trace.WriteDAG format)")
		n         = flag.Int("n", 4, "dev-fixture roster size the DAG was built with")
		rosterF   = flag.String("roster", "", "roster file the DAG was built under (overrides -n)")
		format    = flag.String("format", "dot", "output format: dot | ascii")
		protoName = flag.String("protocol", "", "annotate buffers for this protocol: brb | pbft | courier")
		label     = flag.String("label", "", "instance label to annotate (requires -protocol)")
	)
	flag.Parse()
	if *in == "" {
		return fmt.Errorf("-in is required")
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
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer func() { _ = f.Close() }()
	d, err := trace.ReadDAG(f, r)
	if err != nil {
		return err
	}

	var annotate trace.Annotator
	if *protoName != "" && *label != "" {
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
