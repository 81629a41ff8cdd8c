// Package blockdag's root benchmark suite: one benchmark per quantitative
// experiment of internal/experiments (the E-numbers are its index;
// `go run ./cmd/experiments -list` prints it). Each benchmark regenerates
// its table's series and reports the load-bearing quantities via
// b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the tables' measured columns. The structural figure checks
// (E1–E4, E6–E8) are ordinary tests in the package suites; the benchmarks
// here cover the quantitative claims.
package blockdag

import (
	"fmt"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/crypto"
	"blockdag/internal/dagtest"
	"blockdag/internal/direct"
	"blockdag/internal/experiments"
	"blockdag/internal/interpret"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/protocols/courier"
	"blockdag/internal/protocols/pbft"
	"blockdag/internal/simnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// runBroadcastWorkload drives `broadcasts` BRB instances to full delivery
// on a DAG cluster and returns it.
func runBroadcastWorkload(b *testing.B, n, broadcasts int, sigs *crypto.Counters) *cluster.Cluster {
	b.Helper()
	c, err := cluster.New(cluster.Options{
		N: n, Protocol: brb.Protocol{}, Seed: 42,
		MaxBatch: broadcasts + 1, SigCounters: sigs,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < broadcasts; i++ {
		c.Request(i%n, types.Label(fmt.Sprintf("bc/%d", i)), []byte("v"))
	}
	done := func() bool {
		for _, srv := range c.CorrectServers() {
			seen := make(map[types.Label]bool)
			for _, ind := range c.Indications(srv) {
				seen[ind.Label] = true
			}
			if len(seen) < broadcasts {
				return false
			}
		}
		return true
	}
	ok, err := c.RunUntil(60, done)
	if err != nil {
		b.Fatal(err)
	}
	if !ok {
		b.Fatalf("workload incomplete: n=%d broadcasts=%d", n, broadcasts)
	}
	return c
}

// BenchmarkE5_GossipConvergence measures wall time for a 4-server cluster
// to build and fully share a 5-round joint DAG (Lemma 3.7) at varying
// loss rates.
func BenchmarkE5_GossipConvergence(b *testing.B) {
	for _, drop := range []float64{0, 0.3} {
		b.Run(fmt.Sprintf("drop=%.0f%%", drop*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(cluster.Options{
					N: 4, Protocol: brb.Protocol{}, Seed: int64(i + 1), Drop: drop,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := c.RunRounds(5); err != nil {
					b.Fatal(err)
				}
				c.Net.SetDrop(0)
				rounds := 0
				for !c.Converged() && rounds < 50 {
					if err := c.RunRounds(1); err != nil {
						b.Fatal(err)
					}
					rounds++
				}
				if !c.Converged() {
					b.Fatal("no convergence")
				}
			}
		})
	}
}

// BenchmarkE9_MessageCompression reports wire messages for the DAG path vs
// the direct baseline on the same 16-broadcast workload (Table E9).
func BenchmarkE9_MessageCompression(b *testing.B) {
	const broadcasts = 16
	for _, n := range []int{4, 10} {
		b.Run(fmt.Sprintf("dag/n=%d", n), func(b *testing.B) {
			var wire, sim int64
			for i := 0; i < b.N; i++ {
				c := runBroadcastWorkload(b, n, broadcasts, nil)
				wire, sim = 0, 0
				for _, m := range c.Metrics {
					s := m.Snapshot()
					wire += s.WireMessages
					sim += s.MsgsMaterialized
				}
			}
			b.ReportMetric(float64(wire), "wire-msgs")
			b.ReportMetric(float64(sim), "simulated-msgs")
		})
		b.Run(fmt.Sprintf("direct/n=%d", n), func(b *testing.B) {
			var wire int64
			for i := 0; i < b.N; i++ {
				net := simnet.New(simnet.WithSeed(42))
				c, err := direct.NewCluster(brb.Protocol{}, n,
					func(id types.ServerID) transport.Transport { return net.Transport(id) },
					func(id types.ServerID, ep transport.Endpoint) { net.Register(id, transport.ChanGossip, ep) },
					nil,
				)
				if err != nil {
					b.Fatal(err)
				}
				for j := 0; j < broadcasts; j++ {
					c.Servers[j%n].Request(types.Label(fmt.Sprintf("bc/%d", j)), []byte("v"))
				}
				net.Run()
				wire = 0
				for _, m := range c.Metrics {
					wire += m.Snapshot().WireMessages
				}
			}
			b.ReportMetric(float64(wire), "wire-msgs")
		})
	}
}

// BenchmarkE10_SignatureBatching reports signature operations per
// workload for both deployments (Table E10).
func BenchmarkE10_SignatureBatching(b *testing.B) {
	const n, broadcasts = 4, 16
	b.Run("dag", func(b *testing.B) {
		var signed, verified int64
		for i := 0; i < b.N; i++ {
			var sigs crypto.Counters
			runBroadcastWorkload(b, n, broadcasts, &sigs)
			signed, verified = sigs.Signed(), sigs.Verified()
		}
		b.ReportMetric(float64(signed), "signed")
		b.ReportMetric(float64(verified), "verified")
	})
	b.Run("direct", func(b *testing.B) {
		var signed, verified int64
		for i := 0; i < b.N; i++ {
			var sigs crypto.Counters
			net := simnet.New(simnet.WithSeed(42))
			c, err := direct.NewCluster(brb.Protocol{}, n,
				func(id types.ServerID) transport.Transport { return net.Transport(id) },
				func(id types.ServerID, ep transport.Endpoint) { net.Register(id, transport.ChanGossip, ep) },
				&sigs,
			)
			if err != nil {
				b.Fatal(err)
			}
			for j := 0; j < broadcasts; j++ {
				c.Servers[j%n].Request(types.Label(fmt.Sprintf("bc/%d", j)), []byte("v"))
			}
			net.Run()
			signed, verified = sigs.Signed(), sigs.Verified()
		}
		b.ReportMetric(float64(signed), "signed")
		b.ReportMetric(float64(verified), "verified")
	})
}

// BenchmarkE11_ParallelInstances sweeps instance counts on fixed blocks
// (Table E11): wall time grows sublinearly and wire bytes per instance
// collapse.
func BenchmarkE11_ParallelInstances(b *testing.B) {
	for _, instances := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("instances=%d", instances), func(b *testing.B) {
			var bytesPerInst float64
			for i := 0; i < b.N; i++ {
				c := runBroadcastWorkload(b, 4, instances, nil)
				var wireBytes int64
				for _, m := range c.Metrics {
					wireBytes += m.Snapshot().WireBytes
				}
				bytesPerInst = float64(wireBytes) / float64(instances)
			}
			b.ReportMetric(bytesPerInst, "wire-B/instance")
		})
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
		it := interpret.New(brb.Protocol{}, 4, 1, nil, interpret.WithMetrics(m))
		if err := it.InterpretDAG(h.DAG); err != nil {
			b.Fatal(err)
		}
		msgs = m.Snapshot().MsgsMaterialized
	}
	b.ReportMetric(float64(blocks)*float64(b.N)/b.Elapsed().Seconds(), "blocks/s")
	b.ReportMetric(float64(msgs)*float64(b.N)/b.Elapsed().Seconds(), "msgs/s")
}

// BenchmarkE13_ReferenceOverhead reports per-block size and reference
// count as n grows (Table E13; the paper's Section 7 O(n²) concession).
func BenchmarkE13_ReferenceOverhead(b *testing.B) {
	for _, n := range []int{4, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var refsPerBlock, bytesPerBlock float64
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(cluster.Options{N: n, Protocol: brb.Protocol{}, Seed: 9})
				if err != nil {
					b.Fatal(err)
				}
				if err := c.RunRounds(6); err != nil {
					b.Fatal(err)
				}
				var refs, bytes, blocks int64
				for _, blk := range c.Servers[0].DAG().Blocks() {
					if blk.Seq == 0 {
						continue
					}
					refs += int64(len(blk.Preds))
					bytes += int64(len(blk.Encode()))
					blocks++
				}
				refsPerBlock = float64(refs) / float64(blocks)
				bytesPerBlock = float64(bytes) / float64(blocks)
			}
			b.ReportMetric(refsPerBlock, "refs/block")
			b.ReportMetric(bytesPerBlock, "B/block")
		})
	}
}

// BenchmarkE14_Throughput measures deliverable requests per virtual second
// with batched courier streams (Table E14).
func BenchmarkE14_Throughput(b *testing.B) {
	for _, batch := range []int{16, 256} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			var txPerSec float64
			for i := 0; i < b.N; i++ {
				c, err := cluster.New(cluster.Options{
					N: 4, Protocol: courier.Protocol{}, Seed: 4,
					MaxBatch: batch + 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				seq := 0
				const rounds = 10
				for r := 0; r < rounds; r++ {
					for srv := 0; srv < 4; srv++ {
						for k := 0; k < batch; k++ {
							c.Request(srv, types.Label(fmt.Sprintf("tx/%d/%d", srv, seq)),
								courier.EncodeRequest(types.ServerID((srv+1)%4), []byte("tx")))
							seq++
						}
					}
					if err := c.RunRounds(1); err != nil {
						b.Fatal(err)
					}
				}
				if err := c.RunRounds(4); err != nil {
					b.Fatal(err)
				}
				var delivered int
				for _, srv := range c.CorrectServers() {
					delivered += len(c.Indications(srv))
				}
				txPerSec = float64(delivered) / c.Net.Now().Seconds()
			}
			b.ReportMetric(txPerSec, "tx/s-virtual")
		})
	}
}

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

// BenchmarkE16_ReferencesPerBlock regenerates Table E16: references per
// block against the blocks each one brings into its chain, over n and rate
// skew.
func BenchmarkE16_ReferencesPerBlock(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.E16ReferencesPerBlock(); err != nil {
			b.Fatal(err)
		}
	}
}

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
		it := interpret.New(brb.Protocol{}, 4, 1, nil)
		if err := it.InterpretDAG(h.DAG); err != nil {
			b.Fatal(err)
		}
	}
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

// BenchmarkLiveFollow compares how a running follower that lagged behind
// a live cluster reconverges once its partition heals:
//
//   - follow: the live-follower loop — one watermark poll plus one
//     validated delta stream on the sync channel
//   - fwd: the gossip layer's per-block FWD path, one sequential round
//     trip per missing ancestor
//
// Reported metrics: virtual-ms is simulated time from heal to full
// coverage of the backlog (what a real laggard would wait), net-msgs the
// messages that crossed the simulated network in that window, and
// backlog the blocks the follower was missing. The follow path costs a
// handful of frames and round trips; FWD walks the ancestry one round
// trip at a time.
func BenchmarkLiveFollow(b *testing.B) {
	const lagRounds = 30

	// lagged builds a cluster whose slot 3 missed lagRounds of progress
	// behind a (just-healed) partition.
	lagged := func(b *testing.B, followEvery time.Duration) *cluster.Cluster {
		b.Helper()
		c, err := cluster.New(cluster.Options{
			N: 4, Protocol: brb.Protocol{}, Seed: 11,
			FollowEvery: followEvery,
		})
		if err != nil {
			b.Fatal(err)
		}
		c.Request(0, "pre", []byte("v"))
		if err := c.RunRounds(4); err != nil {
			b.Fatal(err)
		}
		c.Net.SetPartition(func(from, to types.ServerID) bool {
			return from == 3 || to == 3
		})
		for i := 0; i < 8; i++ {
			c.Request(i%3, types.Label(fmt.Sprintf("lag/%d", i)), []byte("w"))
		}
		if err := c.RunRounds(lagRounds); err != nil {
			b.Fatal(err)
		}
		c.Net.SetPartition(nil)
		return c
	}
	covered := func(c *cluster.Cluster, refs []block.Ref) bool {
		d := c.Servers[3].DAG()
		for _, ref := range refs {
			if !d.Contains(ref) {
				return false
			}
		}
		return true
	}

	b.Run("follow", func(b *testing.B) {
		var virtual time.Duration
		var msgs int64
		var backlog int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := lagged(b, 50*time.Millisecond)
			b.StartTimer()
			target := c.Servers[0].DAG().Refs()
			backlog = c.Servers[0].DAG().Len() - c.Servers[3].DAG().Len()
			s0, t0 := c.Net.Stats(), c.Net.Now()
			c.FollowOnce(3)
			c.Net.Run()
			if !covered(c, target) {
				b.Fatal("follow pull did not cover the backlog")
			}
			s1 := c.Net.Stats()
			virtual = c.Net.Now() - t0
			msgs = (s1.Sends - s0.Sends) + (s1.Calls - s0.Calls) + (s1.CallFrames - s0.CallFrames)
		}
		b.ReportMetric(float64(virtual.Milliseconds()), "virtual-ms")
		b.ReportMetric(float64(msgs), "net-msgs")
		b.ReportMetric(float64(backlog), "backlog")
	})

	b.Run("fwd", func(b *testing.B) {
		var virtual time.Duration
		var msgs int64
		var backlog int
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			c := lagged(b, 0)
			b.StartTimer()
			target := c.Servers[0].DAG().Refs()
			backlog = c.Servers[0].DAG().Len() - c.Servers[3].DAG().Len()
			s0, t0 := c.Net.Stats(), c.Net.Now()
			// The laggard discovers the gap from the next blocks it
			// receives and walks it back one FWD round trip at a time.
			ok, err := c.RunUntil(40, func() bool { return covered(c, target) })
			if err != nil || !ok {
				b.Fatalf("fwd recovery incomplete: ok=%v err=%v", ok, err)
			}
			s1 := c.Net.Stats()
			virtual = c.Net.Now() - t0
			msgs = (s1.Sends - s0.Sends) + (s1.Calls - s0.Calls) + (s1.CallFrames - s0.CallFrames)
		}
		b.ReportMetric(float64(virtual.Milliseconds()), "virtual-ms")
		b.ReportMetric(float64(msgs), "net-msgs")
		b.ReportMetric(float64(backlog), "backlog")
	})
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
				it := interpret.New(brb.Protocol{}, 4, 1, nil)
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
