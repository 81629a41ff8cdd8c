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

// BenchmarkLiveFollow compares how a running slot that lagged behind a
// live cluster reconverges once its partition heals, with the next rounds
// running:
//
//   - fwd: a storeless cluster, gossip's per-block FWD path alone — one
//     sequential round trip per missing ancestor
//   - pull: a durable cluster, FWD plus the live follower, which pulls one
//     validated delta stream on the sync channel when gossip shows lag
//     (a re-ask, or inbound silence)
//
// Reported metrics: virtual-ms is simulated time from heal to full
// coverage of the backlog (what a real laggard would wait), net-msgs the
// messages that crossed the simulated network in that window, and
// backlog the blocks the laggard was missing.
func BenchmarkLiveFollow(b *testing.B) {
	const lagRounds = 30

	// lagged builds a cluster whose slot 3 missed lagRounds of progress
	// behind a (just-healed) partition.
	lagged := func(b *testing.B, durable bool) *cluster.Cluster {
		b.Helper()
		opts := cluster.Options{N: 4, Protocol: brb.Protocol{}, Seed: 11}
		if durable {
			opts.StoreDir = b.TempDir()
		}
		c, err := cluster.New(opts)
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

	for _, arm := range []struct {
		name    string
		durable bool
	}{{"fwd", false}, {"pull", true}} {
		b.Run(arm.name, func(b *testing.B) {
			var virtual time.Duration
			var msgs int64
			var backlog int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c := lagged(b, arm.durable)
				b.StartTimer()
				target := c.Servers[0].DAG().Refs()
				backlog = c.Servers[0].DAG().Len() - c.Servers[3].DAG().Len()
				s0, t0 := c.Net.Stats(), c.Net.Now()
				// The laggard discovers the gap from the next blocks it
				// receives: FWD walks it back one round trip at a time, and
				// on a durable slot the first re-ask pulls the rest. The
				// rounds run on their own clock, interleaved with the walk.
				c.ScheduleRounds(40)
				for !covered(c, target) && c.Net.Step() {
				}
				if !covered(c, target) {
					b.Fatal("recovery incomplete")
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
}
