package cluster

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// TestPeersAnswerAFullBuilder: builder 0 alone is loaded, twice
// block.MaxRequests a round, so every round it seals two blocks full by
// their request count, at its tick. Its full blocks put every peer under
// load, and builder 0 is under load throughout: each node answers a quorum —
// blocks of two other builders since its own last block — in the turn that
// delivers the block completing it, instead of at its own tick, at most
// twice in any interval. The virtual time from a round's submission to
// builder 0's indication of each of its requests is pinned at p50, p95 and
// the maximum. A load that never fills a block answers nothing.
func TestPeersAnswerAFullBuilder(t *testing.T) {
	const (
		n        = 4
		rounds   = 40
		interval = 200 * time.Millisecond
	)
	c, err := New(Options{N: n, Protocol: brb.Protocol{}, Seed: 3, Interval: interval})
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)
	submitted := make(map[types.Label]time.Duration)
	for r := 0; r < rounds; r++ {
		at := time.Duration(r) * interval
		c.Net.After(at, func() {
			for k := range 2 * block.MaxRequests {
				label := types.Label(fmt.Sprintf("full/%d/%d", r, k))
				submitted[label] = at
				c.Request(0, label, []byte{byte(k)})
			}
		})
	}
	if err := c.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}

	var took []time.Duration
	for _, ind := range c.Indications(0) {
		took = append(took, ind.At-submitted[ind.Label])
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
	t.Logf("submission to indication p50 %v p95 %v max %v; answered %v; builder 0 built %d",
		p50, p95, took[len(took)-1], answered, c.Metrics[0].Get(metrics.BlocksBuilt))
	// Builder 0 seals two blocks a round, at its tick, which the rounds'
	// submissions precede. Without the answer rule an indication takes three
	// rounds, 600 ms, at p50 and p95.
	if p50 != 200*time.Millisecond || p95 != 400*time.Millisecond {
		t.Fatalf("an indication took %v at p50, %v at p95, want 200ms and 400ms", p50, p95)
	}
	if most := took[len(took)-1]; most != 400*time.Millisecond {
		t.Fatalf("an indication took %v at most, want 400ms", most)
	}
	// Every node answers 68 quorums over the 40 rounds, of the 80 the
	// window allows; builder 0 builds its two full blocks a round beside.
	if !slices.Equal(answered, []int64{68, 68, 68, 68}) || c.Metrics[0].Get(metrics.BlocksBuilt) != 2*rounds+68 {
		t.Fatalf("answered %v, builder 0 built %d: want 68 answers at every node, builder 0 building %d blocks",
			answered, c.Metrics[0].Get(metrics.BlocksBuilt), 2*rounds+68)
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
// DisseminateEarly), over links without jitter, so its full blocks reach
// each peer exactly half an interval apart and keep every node under load.
// Every node, builder 0 included, spends its whole window: two answers an
// interval, each to a quorum its peers completed.
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
			if !c.Nodes[0].DisseminateEarly() {
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
	var answered []int64
	for _, m := range c.Metrics {
		answered = append(answered, m.Get(metrics.BlocksAnswered))
	}
	if want := []int64{2 * rounds, 2 * rounds, 2 * rounds, 2 * rounds}; !slices.Equal(answered, want) {
		t.Fatalf("answered %v, want %v", answered, want)
	}
}
