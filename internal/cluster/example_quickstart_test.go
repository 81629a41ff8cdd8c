package cluster_test

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"blockdag/internal/cluster"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/trace"
)

// Example_quickstart is the smallest end-to-end use of the block DAG
// framework: four servers embed byzantine reliable broadcast (the paper's
// Section 5 example), server s0 requests broadcast(42) on instance ℓ1,
// and every server delivers 42 — while the network only ever carried
// blocks, never a single ECHO or READY message.
//
// The output reproduces the paper's Figure 4: the materialized message
// buffers Ms[in, ℓ1] and Ms[out, ℓ1] at each block of the DAG.
func Example_quickstart() {
	// A cluster of four servers (tolerating f=1 byzantine) running
	// shim(BRB) over the simulated network.
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}})
	if err != nil {
		fmt.Println(err)
		return
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
		fmt.Println(err)
		return
	}
	if !ok {
		fmt.Println("no delivery within 20 rounds")
		return
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
		fmt.Println(err)
		return
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

	// And the DAG itself, as Graphviz: write dot to a file and render it
	// with dot -Tsvg (`dagstore render` draws a stored DAG the same way).
	dot := trace.DOT(srv.DAG(), trace.BufferAnnotator(buffers))
	sum := sha256.Sum256([]byte(dot))
	fmt.Printf("\nannotated Figure 4 DAG as DOT: %d lines, sha256 %x…\n", strings.Count(dot, "\n"), sum[:8])
	// Output:
	// deliveries (Theorem 5.1: shim(BRB) behaves exactly like BRB):
	//   s0 delivered "42" on instance ℓ1
	//   s1 delivered "42" on instance ℓ1
	//   s2 delivered "42" on instance ℓ1
	//   s3 delivered "42" on instance ℓ1
	//
	// network: 42 block/FWD sends, 6297 bytes
	// interpretation: 128 protocol messages materialized, 0 sent
	//
	// figure 4 — message buffers for ℓ1 at each block of s0's DAG:
	//   block s0/k0:
	//     out: s0 -> s0  (4 bytes)
	//     out: s0 -> s1  (4 bytes)
	//     out: s0 -> s2  (4 bytes)
	//     out: s0 -> s3  (4 bytes)
	//   block s1/k1:
	//     in : s0 -> s1  (4 bytes)
	//     out: s1 -> s0  (4 bytes)
	//     out: s1 -> s1  (4 bytes)
	//     out: s1 -> s2  (4 bytes)
	//     out: s1 -> s3  (4 bytes)
	//   block s2/k1:
	//     in : s0 -> s2  (4 bytes)
	//     out: s2 -> s0  (4 bytes)
	//     out: s2 -> s1  (4 bytes)
	//     out: s2 -> s2  (4 bytes)
	//     out: s2 -> s3  (4 bytes)
	//   block s3/k1:
	//     in : s0 -> s3  (4 bytes)
	//     out: s3 -> s0  (4 bytes)
	//     out: s3 -> s1  (4 bytes)
	//     out: s3 -> s2  (4 bytes)
	//     out: s3 -> s3  (4 bytes)
	//   block s3/k2:
	//     in : s1 -> s3  (4 bytes)
	//     in : s2 -> s3  (4 bytes)
	//     in : s3 -> s3  (4 bytes)
	//     out: s3 -> s0  (4 bytes)
	//     out: s3 -> s1  (4 bytes)
	//     out: s3 -> s2  (4 bytes)
	//     out: s3 -> s3  (4 bytes)
	//   block s2/k2:
	//     in : s1 -> s2  (4 bytes)
	//     in : s2 -> s2  (4 bytes)
	//     out: s2 -> s0  (4 bytes)
	//     out: s2 -> s1  (4 bytes)
	//     out: s2 -> s2  (4 bytes)
	//     out: s2 -> s3  (4 bytes)
	//   block s1/k2:
	//     in : s1 -> s1  (4 bytes)
	//     in : s2 -> s1  (4 bytes)
	//     in : s3 -> s1  (4 bytes)
	//     out: s1 -> s0  (4 bytes)
	//     out: s1 -> s1  (4 bytes)
	//     out: s1 -> s2  (4 bytes)
	//     out: s1 -> s3  (4 bytes)
	//   block s0/k1:
	//     in : s0 -> s0  (4 bytes)
	//     in : s1 -> s0  (4 bytes)
	//     in : s1 -> s0  (4 bytes)
	//     in : s2 -> s0  (4 bytes)
	//     in : s2 -> s0  (4 bytes)
	//     in : s3 -> s0  (4 bytes)
	//     in : s3 -> s0  (4 bytes)
	//     out: s0 -> s0  (4 bytes)
	//     out: s0 -> s1  (4 bytes)
	//     out: s0 -> s2  (4 bytes)
	//     out: s0 -> s3  (4 bytes)
	//   block s2/k3:
	//     in : s1 -> s2  (4 bytes)
	//     in : s2 -> s2  (4 bytes)
	//     in : s3 -> s2  (4 bytes)
	//     in : s3 -> s2  (4 bytes)
	//   block s1/k3:
	//     in : s1 -> s1  (4 bytes)
	//     in : s2 -> s1  (4 bytes)
	//     in : s3 -> s1  (4 bytes)
	//   block s3/k3:
	//     in : s1 -> s3  (4 bytes)
	//     in : s2 -> s3  (4 bytes)
	//     in : s3 -> s3  (4 bytes)
	//
	// annotated Figure 4 DAG as DOT: 60 lines, sha256 80a2d6e99701a20e…
}
