package graph

import "testing"

// BenchmarkInsertChained is the graph's share of a block insert: 4 096
// vertices with 32-byte keys on four chains that take turns, each citing
// its parent and the vertex inserted just before it. B/op and allocs/op
// are per graph of 4 096.
func BenchmarkInsertChained(b *testing.B) {
	const chains, size = 4, 4096
	type key [32]byte
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
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := New[key]()
		for v := range keys {
			if err := g.InsertChained(keys[v], preds[v], v%chains, uint64(v/chains)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(size, "vertices/op")
}
