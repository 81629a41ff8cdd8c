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
// their request count, at its tick; its peers answer each round's first one
// in the turn that delivers it, instead of at their own tick, and the
// second, which arrives within half an interval of the first, not. The
// rounds an indication takes at builder 0 — its own blocks between the one
// embedding a request and the one indicating it, as dagbench's
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
	if most := took[len(took)-1]; p50 != 4 || p95 != 4 || most != 5 {
		t.Fatalf("an indication took %d own blocks at p50, %d at p95, %d at most, want 4, 4 and 5", p50, p95, most)
	}
	// Answers half an interval apart: every round's first full block is
	// answered at every peer, its second not.
	if answered[0] != 0 || slices.Min(answered[1:]) != rounds || slices.Max(answered) != rounds {
		t.Fatalf("answered %v: want none by the loaded builder, %d, one a round, by each peer", answered, rounds)
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

// TestPeersAnswerTwoFullBlocksAnInterval: builder 0 seals a full block at
// every whole interval (its tick) and every half interval (a stepped
// DisseminateIfFull), over links without jitter, so its full blocks reach
// each peer exactly half an interval apart. Every peer answers every one of
// them: answers half an interval apart keep up with a builder that fills two
// blocks an interval, where answers an interval apart took one in two.
func TestPeersAnswerTwoFullBlocksAnInterval(t *testing.T) {
	const (
		n        = 4
		rounds   = 20
		interval = 200 * time.Millisecond
	)
	c, err := New(Options{N: n, Protocol: brb.Protocol{}, Seed: 3, Interval: interval, Jitter: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)
	fill := func(r, half int) {
		for k := range block.MaxRequests {
			c.Request(0, types.Label(fmt.Sprintf("full/%d/%d/%d", r, half, k)), []byte{byte(k)})
		}
	}
	for r := 0; r < rounds; r++ {
		at := time.Duration(r) * interval
		c.Net.After(at, func() { fill(r, 0) }) // before the tick, which seals it
		c.Net.After(at+interval/2, func() {
			fill(r, 1)
			if !c.Nodes[0].DisseminateIfFull() {
				t.Errorf("round %d: builder 0 did not seal its half-interval block", r)
			}
		})
	}
	if err := c.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}

	full := 0
	for _, b := range c.Servers[0].DAG().ByBuilder(0) {
		if len(b.Requests) == block.MaxRequests {
			full++
		}
	}
	if full != 2*rounds {
		t.Fatalf("builder 0 sealed %d full blocks, want two a round, %d", full, 2*rounds)
	}
	for i, m := range c.Metrics {
		want := int64(full)
		if i == 0 {
			want = 0
		}
		if got := m.Get(metrics.BlocksAnswered); got != want {
			t.Fatalf("slot %d answered %d of builder 0's %d full blocks, want %d", i, got, full, want)
		}
	}
}
