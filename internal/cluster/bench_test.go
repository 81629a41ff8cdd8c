package cluster_test

import (
	"fmt"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// BenchmarkLiveFollow compares how a running follower that lagged behind
// a live cluster reconverges once its partition heals:
//
//   - follow: the live-follower loop — one validated delta stream on the
//     sync channel (request, one batch, done)
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
