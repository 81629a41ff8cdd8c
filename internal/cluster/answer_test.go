package cluster

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/deploy"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// TestPeersAnswerAFullBuilder: builder 0 alone is loaded, twice
// block.MaxRequests a round, so every round it seals two blocks full by
// their request count; its peers answer each round's first one in the turn
// that delivers it, at most once an interval, instead of at their own tick.
// The rounds an indication takes at builder 0 — its own blocks between the
// one embedding a request and the one indicating it, as dagbench's
// dag.rounds_to_indication counts them — are pinned. A load that never
// fills a block answers nothing.
func TestPeersAnswerAFullBuilder(t *testing.T) {
	const (
		n        = 4
		rounds   = 40
		interval = 200 * time.Millisecond
	)
	var c *Cluster
	indicatedAt := make(map[types.Label]uint64) // builder 0's own blocks when it indicated the label
	opts := Options{N: n, Protocol: brb.Protocol{}, Seed: 3, Interval: interval}
	opts.slot = func(i int, cfg *deploy.Config) {
		if i != 0 {
			return
		}
		record := cfg.OnIndication
		cfg.OnIndication = func(label types.Label, value []byte) {
			record(label, value)
			indicatedAt[label] = c.Servers[0].DAG().Head(0).Next
		}
	}
	var err error
	if c, err = New(opts); err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)
	for r := 0; r < rounds; r++ {
		c.Net.After(time.Duration(r)*interval, func() {
			for k := range 2 * block.MaxRequests {
				c.Request(0, types.Label(fmt.Sprintf("full/%d/%d", r, k)), []byte{byte(k)})
			}
		})
	}
	if err := c.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}

	var took []int
	for _, b := range c.Servers[0].DAG().ByBuilder(0) {
		for _, rq := range b.Requests {
			if at, ok := indicatedAt[rq.Label]; ok {
				took = append(took, int(at-(b.Seq+1)))
			}
		}
	}
	if want := (rounds - 2) * 2 * block.MaxRequests; len(took) < want {
		t.Fatalf("builder 0 indicated %d of its requests, want all of the first %d rounds' %d", len(took), rounds-2, want)
	}
	slices.Sort(took)
	p50, p95 := took[len(took)/2], took[len(took)*95/100]
	var answered []int64
	for _, m := range c.Metrics {
		answered = append(answered, m.Get(metrics.BlocksAnswered))
	}
	t.Logf("rounds to indication p50 %d p95 %d max %d; answered by slot %v; builder 0 built %d",
		p50, p95, took[len(took)-1], answered, c.Metrics[0].Get(metrics.BlocksBuilt))
	// Builder 0 seals two blocks a round, at its tick. Without the answer
	// rule an indication takes 6 of them at p50 and p95: three rounds.
	if p50 != 4 || p95 != 5 {
		t.Fatalf("an indication took %d own blocks at p50, %d at p95, want 4 and 5", p50, p95)
	}
	// A peer answers at most once an interval: a full block that arrives
	// earlier than an interval after its last answer, the links' jitter
	// allowing, waits for the tick.
	if answered[0] != 0 || slices.Min(answered[1:]) < rounds/2 || slices.Max(answered) > rounds {
		t.Fatalf("answered %v: want none by the loaded builder, between %d and %d by each peer", answered, rounds/2, rounds)
	}

	c, err = New(Options{N: n, Protocol: brb.Protocol{}, Seed: 3, Interval: interval, LoadPerRound: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)
	if err := c.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	for i, m := range c.Metrics {
		if got := m.Get(metrics.BlocksAnswered); got != 0 {
			t.Fatalf("slot %d answered %d blocks of a load that never fills one", i, got)
		}
	}
}
