package graph

import "testing"

// key is a block reference's shape: 32 bytes.
type key [32]byte

// staggered returns size keys on chains that take turns and each key's
// predecessors: its parent on its chain and the key made just before it.
func staggered(chains, size int) ([]key, [][]key) {
	keys := make([]key, size)
	preds := make([][]key, size)
	for i := range keys {
		keys[i] = key{byte(i), byte(i >> 8), 1}
		if i >= chains {
			preds[i] = []key{keys[i-chains], keys[i-1]}
		} else if i > 0 {
			preds[i] = []key{keys[i-1]}
		}
	}
	return keys, preds
}

// insertStaggered builds a graph of keys, key i element i/chains of chain
// i%chains.
func insertStaggered(tb testing.TB, chains int, keys []key, preds [][]key) *DAG[key] {
	g := New[key]()
	for v := range keys {
		if err := g.InsertChained(keys[v], preds[v], v%chains, uint64(v/chains)); err != nil {
			tb.Fatal(err)
		}
	}
	return g
}

// BenchmarkInsertChained is the graph's share of a block insert: 4 096
// vertices with 32-byte keys on four chains that take turns, each citing
// its parent and the vertex inserted just before it. B/op and allocs/op
// are per graph of 4 096.
func BenchmarkInsertChained(b *testing.B) {
	const chains, size = 4, 4096
	keys, preds := staggered(chains, size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insertStaggered(b, chains, keys, preds)
	}
	b.ReportMetric(size, "vertices/op")
}
