package core_test

import (
	"fmt"
	"testing"

	"blockdag/internal/cluster"
	"blockdag/internal/protocols/pbft"
	"blockdag/internal/types"
)

// BenchmarkE15_PBFTEmbedding measures embedded consensus: wall time to
// decide 8 PBFT slots through the DAG, all servers in agreement.
func BenchmarkE15_PBFTEmbedding(b *testing.B) {
	const slots = 8
	for i := 0; i < b.N; i++ {
		c, err := cluster.New(cluster.Options{N: 4, Protocol: pbft.Protocol{}, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < slots; s++ {
			label := types.Label(fmt.Sprintf("slot/%d", s))
			c.Request(int(pbft.Leader(label, 4)), label, []byte("cmd"))
		}
		done := func() bool {
			for _, srv := range c.CorrectServers() {
				if len(c.Indications(srv)) < slots {
					return false
				}
			}
			return true
		}
		ok, err := c.RunUntil(40, done)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("consensus incomplete")
		}
	}
}
