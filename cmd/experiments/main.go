// Command experiments regenerates the paper's evaluation artifacts: every
// quantitative claim as a table (message compression, signature batching,
// parallel instances, reference overhead, throughput, gossip convergence)
// plus programmatic re-checks of the structural figures (2, 3, 4).
//
// Usage:
//
//	experiments            # run everything
//	experiments -e E9,E11  # run selected experiments
//	experiments -list      # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"blockdag/internal/experiments"
)

func main() {
	var (
		only = flag.String("e", "", "comma-separated experiment IDs to run (default: all)")
		list = flag.Bool("list", false, "list experiment IDs and exit")
	)
	flag.Parse()

	registry := experiments.Registry()
	if *list {
		for _, e := range registry {
			fmt.Println(e.ID)
		}
		return
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}

	failed := false
	for _, e := range registry {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		table, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			failed = true
			continue
		}
		fmt.Println(table.Render())
	}
	if failed {
		os.Exit(1)
	}
}
