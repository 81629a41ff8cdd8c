package interpret

import (
	"fmt"
	"runtime"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// benchDAG builds rounds of all-to-all blocks with one fresh BRB instance
// per round.
func benchDAG(rounds int) *dagtest.Harness {
	h := dagtest.NewHarness(4)
	for r := 0; r < rounds; r++ {
		h.Round(map[int][]block.Request{
			r % 4: {{Label: types.Label(fmt.Sprintf("l/%d", r)), Data: []byte("v")}},
		})
	}
	return h
}

func BenchmarkInterpretPerBlock(b *testing.B) {
	h := benchDAG(32)
	blocks := h.DAG.Blocks()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := New(brb.Protocol{}, 4, 1, nil)
		for _, blk := range blocks {
			if err := it.AddBlock(blk); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(blocks)), "blocks/op")
}

// BenchmarkInterpretManyLabels measures the cost of one block carrying
// requests for many instances at once — the per-label overhead of the
// instance table.
func BenchmarkInterpretManyLabels(b *testing.B) {
	for _, labels := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("labels=%d", labels), func(b *testing.B) {
			h := dagtest.NewHarness(4)
			reqs := make([]block.Request, labels)
			for i := range reqs {
				reqs[i] = block.Request{Label: types.Label(fmt.Sprintf("l/%d", i)), Data: []byte("v")}
			}
			h.Round(map[int][]block.Request{0: reqs})
			for r := 0; r < 3; r++ {
				h.Round(nil)
			}
			blocks := h.DAG.Blocks()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := New(brb.Protocol{}, 4, 1, nil)
				for _, blk := range blocks {
					if err := it.AddBlock(blk); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkImplicitVsExplicit compares interpretation cost of the two
// inclusion semantics on the same dense DAG.
func BenchmarkImplicitVsExplicit(b *testing.B) {
	h := benchDAG(32)
	blocks := h.DAG.Blocks()
	for _, mode := range []string{"explicit", "implicit"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var opts []Option
				if mode == "implicit" {
					opts = append(opts, WithImplicitInclusion())
				}
				it := New(brb.Protocol{}, 4, 1, nil, opts...)
				for _, blk := range blocks {
					if err := it.AddBlock(blk); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkImplicitDeep measures implicit-inclusion interpretation over
// deep DAGs (hundreds of all-to-all rounds): with the ancestry-watermark
// enumeration the per-block collection cost must stay flat in depth.
func BenchmarkImplicitDeep(b *testing.B) {
	for _, rounds := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			h := benchDAG(rounds)
			blocks := h.DAG.Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := New(brb.Protocol{}, 4, 1, nil, WithImplicitInclusion())
				if err := it.InterpretDAG(h.DAG); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(blocks), "ns/block")
		})
	}
}

// BenchmarkFreshLabelAtDepth pins that interpretation cost and retained
// memory do not depend on how long the chains already are: every block of
// an all-to-all DAG carries one request for a label nobody has seen, so
// each AddBlock starts a fresh instance on top of a deeper chain. ns/block
// and B/req (live heap retained per request once the DAG is interpreted)
// must stay flat from depth 128 to 8192; a per-block copy of the parent's
// instances, or a search of the chain for an earlier run of the label,
// shows as growth.
func BenchmarkFreshLabelAtDepth(b *testing.B) {
	for _, depth := range []int{128, 1024, 8192} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			h := dagtest.NewHarness(4)
			for r := 0; r < depth; r++ {
				reqs := make(map[int][]block.Request, 4)
				for s := 0; s < 4; s++ {
					reqs[s] = []block.Request{{Label: types.Label(fmt.Sprintf("l/%d/%d", r, s)), Data: []byte("v")}}
				}
				h.Round(reqs)
			}
			blocks := h.DAG.Len()
			var retained uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				before := liveHeap()
				b.StartTimer()
				it := New(brb.Protocol{}, 4, 1, nil)
				if err := it.InterpretDAG(h.DAG); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				retained = liveHeap() - before
				runtime.KeepAlive(it)
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(blocks), "ns/block")
			b.ReportMetric(float64(retained)/float64(blocks), "B/req")
		})
	}
}

// liveHeap returns the bytes of reachable heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
