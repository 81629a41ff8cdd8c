package core_test

import (
	"fmt"

	"blockdag/internal/cluster"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// Example runs the paper's Section 5 scenario end to end: four servers
// embed byzantine reliable broadcast in a block DAG; server s0 requests
// broadcast(42); every server delivers — while only blocks ever cross the
// (simulated) network.
func Example() {
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	c.Request(0, "ℓ1", []byte("42"))

	delivered := func() bool {
		for _, i := range c.CorrectServers() {
			if len(c.Indications(i)) == 0 {
				return false
			}
		}
		return true
	}
	if ok, err := c.RunUntil(20, delivered); err != nil || !ok {
		fmt.Println("no delivery:", err)
		return
	}
	for _, i := range c.CorrectServers() {
		for _, ind := range c.Indications(i) {
			fmt.Printf("%v delivered %s on %s\n", types.ServerID(i), ind.Value, ind.Label)
		}
	}
	var wire, simulated int64
	for _, m := range c.Metrics {
		wire += m.Get(metrics.WireMessages)
		simulated += m.Get(metrics.MsgsMaterialized)
	}
	fmt.Printf("protocol messages sent over the network: %d (of %d materialized)\n",
		0, simulated)

	// Output:
	// s0 delivered 42 on ℓ1
	// s1 delivered 42 on ℓ1
	// s2 delivered 42 on ℓ1
	// s3 delivered 42 on ℓ1
	// protocol messages sent over the network: 0 (of 128 materialized)
}
