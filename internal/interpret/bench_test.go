package interpret

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/metrics"
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

// BenchmarkInterpretDeep measures interpretation over deep DAGs (hundreds
// of all-to-all rounds): the ancestry walk is bounded by the blocks new to
// a chain, so the per-block collection cost must stay flat in depth.
func BenchmarkInterpretDeep(b *testing.B) {
	for _, rounds := range []int{64, 256, 512} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			h := benchDAG(rounds)
			blocks := h.DAG.Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := New(brb.Protocol{}, 4, 1, nil)
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
			retained := benchRetained(b, h.DAG)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(blocks), "ns/block")
			b.ReportMetric(float64(retained)/float64(blocks), "B/req")
		})
	}
}

// largeValueDAG builds an all-to-all DAG of four servers in which each of
// the first labels rounds carries one BRB request of size random bytes,
// the servers taking turns, followed by the rounds that deliver the last.
func largeValueDAG(labels, size int) *dag.DAG {
	h := dagtest.NewHarness(4)
	rng := rand.New(rand.NewSource(int64(size)))
	for r := 0; r < labels; r++ {
		value := make([]byte, size)
		rng.Read(value)
		h.Round(map[int][]block.Request{
			r % 4: {{Label: types.Label(fmt.Sprintf("large/%d", r)), Data: value}},
		})
	}
	for r := 0; r < 3; r++ {
		h.Round(nil)
	}
	return h.DAG
}

// BenchmarkInterpretLargeValue is interpretation when the request's bytes
// dominate: 64 labels of 16 KiB each. B/op is what one node allocates to
// interpret them — per request, (n+1)·|v| = 80 KB of payload (the one ECHO
// every chain re-emits and the READY each chain encodes, none having seen
// another's in lock-step rounds) is what these rounds cost, and every
// further copy of the value per message, tally or delivery adds |v| to it —
// and KB/req what it still holds afterwards: the last rounds' buffers, the
// rest having been released.
func BenchmarkInterpretLargeValue(b *testing.B) {
	const labels, size = 64, 16 << 10
	retained := benchRetained(b, largeValueDAG(labels, size))
	b.ReportMetric(float64(retained)/1024/labels, "KB/req")
}

// benchRetained is the loop of a benchmark that interprets d with a fresh
// four-server BRB interpreter per iteration: only the interpretation is
// timed, and the result is the live heap the last interpreter retained.
func benchRetained(b *testing.B, d *dag.DAG) (retained uint64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		before := dagtest.LiveHeap()
		b.StartTimer()
		it := New(brb.Protocol{}, 4, 1, nil)
		if err := it.InterpretDAG(d); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		retained = dagtest.LiveHeap() - before
		runtime.KeepAlive(it)
		b.StartTimer()
	}
	b.StopTimer()
	return retained
}

// The interpretation microbenchmarks of the experiment index: E3 (Figure 4)
// and E12 (offline interpretation), which cmd/experiments has no table for.

// BenchmarkE3_Figure4Interpretation interprets the exact Figure 4 scenario
// (16 blocks, one BRB instance) — the paper's worked example as a
// microbenchmark.
func BenchmarkE3_Figure4Interpretation(b *testing.B) {
	h := dagtest.NewHarness(4)
	h.Round(map[int][]block.Request{0: {{Label: "ℓ1", Data: []byte("42")}}})
	for r := 0; r < 3; r++ {
		h.Round(nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it := New(brb.Protocol{}, 4, 1, nil)
		if err := it.InterpretDAG(h.DAG); err != nil {
			b.Fatal(err)
		}
	}
}

// buildOfflineDAG constructs a DAG with `rounds` all-to-all rounds and
// labelsPerRound fresh BRB instances per round — the offline
// interpretation corpus for E12.
func buildOfflineDAG(rounds, labelsPerRound int) *dagtest.Harness {
	h := dagtest.NewHarness(4)
	label := 0
	for r := 0; r < rounds; r++ {
		reqs := make(map[int][]block.Request)
		for k := 0; k < labelsPerRound; k++ {
			srv := label % 4
			reqs[srv] = append(reqs[srv], block.Request{
				Label: types.Label(fmt.Sprintf("l/%d", label)),
				Data:  []byte("v"),
			})
			label++
		}
		h.Round(reqs)
	}
	return h
}

// BenchmarkE12_OfflineInterpretation measures pure interpretation speed
// over a prebuilt 160-block, 160-instance DAG: blocks/s and materialized
// messages/s with zero network involvement.
func BenchmarkE12_OfflineInterpretation(b *testing.B) {
	h := buildOfflineDAG(40, 4)
	blocks := h.DAG.Len()
	b.ResetTimer()
	var msgs int64
	for i := 0; i < b.N; i++ {
		m := &metrics.Metrics{}
		it := New(brb.Protocol{}, 4, 1, nil, WithMetrics(m))
		if err := it.InterpretDAG(h.DAG); err != nil {
			b.Fatal(err)
		}
		msgs = m.Get(metrics.MsgsMaterialized)
	}
	b.ReportMetric(float64(blocks)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
	b.ReportMetric(float64(msgs)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// buildDeepFixedLoadDAG builds a DAG `rounds` all-to-all rounds deep with
// a fixed request load (32 BRB instances, all injected in the first eight
// rounds): varying depth varies only DAG structure, so per-block
// interpretation cost across the variants isolates the collection
// machinery from protocol work.
func buildDeepFixedLoadDAG(rounds int) *dagtest.Harness {
	h := dagtest.NewHarness(4)
	label := 0
	for r := 0; r < rounds; r++ {
		reqs := make(map[int][]block.Request)
		if r < 8 {
			for k := 0; k < 4; k++ {
				reqs[label%4] = append(reqs[label%4], block.Request{
					Label: types.Label(fmt.Sprintf("l/%d", label)),
					Data:  []byte("v"),
				})
				label++
			}
		}
		h.Round(reqs)
	}
	return h
}

// BenchmarkE12_DeepDAG extends E12 to deep DAGs (hundreds of all-to-all
// rounds) under a fixed request load: per-block interpretation cost must
// stay flat in DAG depth.
func BenchmarkE12_DeepDAG(b *testing.B) {
	for _, rounds := range []int{40, 160, 480} {
		b.Run(fmt.Sprintf("rounds=%d", rounds), func(b *testing.B) {
			h := buildDeepFixedLoadDAG(rounds)
			blocks := h.DAG.Len()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it := New(brb.Protocol{}, 4, 1, nil)
				if err := it.InterpretDAG(h.DAG); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(blocks), "ns/block")
			b.ReportMetric(float64(blocks)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
		})
	}
}

// BenchmarkInboxByN is what one materialized message costs the interpreter
// at n = 4, 10 and 31, ROADMAP item 20's ruler: one block of
// block.MaxRequests BRB requests, then six all-to-all rounds, interpreted
// from scratch (each instance is 2n² messages). It reports ns and
// allocations a message.
func BenchmarkInboxByN(b *testing.B) {
	for _, n := range []int{4, 10, 31} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			h := dagtest.NewHarness(n)
			h.Round(map[int][]block.Request{0: dagtest.Wide(block.MaxRequests)})
			for range 6 {
				h.Round(nil)
			}
			var msgs int64
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := &metrics.Metrics{}
				it := New(brb.Protocol{}, n, (n-1)/3, nil, WithMetrics(m))
				if err := it.InterpretDAG(h.DAG); err != nil {
					b.Fatal(err)
				}
				msgs = m.Get(metrics.MsgsMaterialized)
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if want := int64(2 * n * n * block.MaxRequests); msgs != want {
				b.Fatalf("%d messages materialized, want 2n² for each of %d instances: %d", msgs, block.MaxRequests, want)
			}
			per := float64(b.N) * float64(msgs)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/msg")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/msg")
		})
	}
}
