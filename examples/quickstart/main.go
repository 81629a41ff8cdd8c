// Command quickstart is the smallest end-to-end use of the block DAG
// framework: four servers embed byzantine reliable broadcast (the paper's
// Section 5 example), server s0 requests broadcast(42) on instance ℓ1,
// and every server delivers 42 — while the network only ever carried
// blocks, never a single ECHO or READY message.
//
// The output reproduces the paper's Figure 4: the materialized message
// buffers Ms[in, ℓ1] and Ms[out, ℓ1] at each block of the DAG.
package main

import (
	"fmt"
	"os"

	"blockdag/internal/cluster"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

func run() error {
	// A cluster of four servers (tolerating f=1 byzantine) running
	// shim(BRB) over the simulated network.
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}})
	if err != nil {
		return err
	}

	// The user asks s0 to broadcast 42 on instance ℓ1 (Algorithm 3,
	// request(ℓ, r)). The request rides inside s0's next block.
	c.Request(0, "ℓ1", []byte("42"))

	// Let the servers gossip blocks until everyone has delivered.
	done := func() bool {
		for _, i := range c.CorrectServers() {
			if len(c.Indications(i)) == 0 {
				return false
			}
		}
		return true
	}
	ok, err := c.RunUntil(20, done)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("no delivery within 20 rounds")
	}

	fmt.Println("deliveries (Theorem 5.1: shim(BRB) behaves exactly like BRB):")
	for _, i := range c.CorrectServers() {
		for _, ind := range c.Indications(i) {
			fmt.Printf("  s%d delivered %q on instance %s\n", i, ind.Value, ind.Label)
		}
	}

	// What actually happened on the wire vs. in interpretation.
	var wireMsgs, wireBytes, simulated int64
	for _, m := range c.Metrics {
		wireMsgs += m.Get(metrics.WireMessages)
		wireBytes += m.Get(metrics.WireBytes)
		simulated += m.Get(metrics.MsgsMaterialized)
	}
	fmt.Printf("\nnetwork: %d block/FWD sends, %d bytes\n", wireMsgs, wireBytes)
	fmt.Printf("interpretation: %d protocol messages materialized, 0 sent\n\n", simulated)

	// Reproduce Figure 4: the per-block message buffers for ℓ1, by
	// interpreting s0's DAG once more and collecting them block by block.
	// (s0's own interpreter answers the same, but it has released what
	// every chain has read and would replay history for each block.)
	srv := c.Servers[0]
	buffers, err := trace.InterpretBuffers(srv.DAG(), brb.Protocol{}, 4, 1, "ℓ1")
	if err != nil {
		return err
	}
	fmt.Println("figure 4 — message buffers for ℓ1 at each block of s0's DAG:")
	for _, b := range srv.DAG().Blocks() {
		bufs, ok := buffers[b.Ref()]
		if !ok {
			continue
		}
		fmt.Printf("  block s%d/k%d:\n", b.Builder, b.Seq)
		for _, m := range bufs.In {
			fmt.Printf("    in : %s -> %s  (%d bytes)\n", m.Sender, m.Receiver, len(m.Payload))
		}
		for _, m := range bufs.Out {
			fmt.Printf("    out: %s -> %s  (%d bytes)\n", m.Sender, m.Receiver, len(m.Payload))
		}
	}

	// And the DAG itself, as Graphviz for the curious:
	// dot -Tsvg dag.dot -o dag.svg
	dot := trace.DOT(srv.DAG(), trace.BufferAnnotator(buffers))
	if err := os.WriteFile("quickstart-dag.dot", []byte(dot), 0o644); err != nil {
		return err
	}
	fmt.Println("\nwrote quickstart-dag.dot (annotated Figure 4 DAG)")
	return nil
}
