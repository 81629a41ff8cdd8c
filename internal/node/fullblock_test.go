package node

import (
	"fmt"
	"testing"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/types"
)

// fullTestNode is server 0 of a four-member roster, whose tick never fires:
// every block it builds is one the full-block trigger sealed. maxBatch is
// core.Config.MaxBatch (0: the default).
func fullTestNode(t *testing.T, maxBatch int) (*Node, *metrics.Metrics) {
	t.Helper()
	members, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	m := &metrics.Metrics{}
	srv, err := core.NewServer(core.Config{
		Roster: members, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: simnet.New().Transport(0), Clock: Clock(), Metrics: m, MaxBatch: maxBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := New(Config{Server: srv, DisseminateEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	return nd, m
}

// sixteenth is a request of 240 B of payload, a block's fixed bytes at
// n = 4: sixteen of them make a full block.
func sixteenth(i int) (types.Label, []byte) {
	label := types.Label(fmt.Sprintf("full/%04d", i))
	return label, make([]byte, blockFixedBytes(4)-len(label))
}

func submitSixteenths(t *testing.T, nd *Node, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := nd.Submit(sixteenth(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// wantOneFullBlock checks that m counted one block, sealed full, carrying a
// full block's sixteen requests.
func wantOneFullBlock(t *testing.T, m *metrics.Metrics) {
	t.Helper()
	if built, full, embedded := m.Get(metrics.BlocksBuilt), m.Get(metrics.BlocksSealedFull), m.Get(metrics.RequestsEmbedded); built != 1 || full != 1 || embedded != fullBlockRatio {
		t.Fatalf("built %d blocks (%d sealed full) embedding %d requests, want 1 (1) embedding %d", built, full, embedded, fullBlockRatio)
	}
}

// TestFullBlockSealsBeforeTheTick: a stepped node whose pool holds one
// request less than a full block seals nothing through the full-block turn;
// with the request that fills it, it seals one own block carrying every
// pending request. So does a pool holding MaxBatch requests, whatever their
// bytes.
func TestFullBlockSealsBeforeTheTick(t *testing.T) {
	if got := fullBlockRatio * blockFixedBytes(4); got != 3840 {
		t.Fatalf("a block is full at %d B at n = 4, want 3840", got)
	}
	nd, m := fullTestNode(t, 0)
	submitSixteenths(t, nd, 0, fullBlockRatio-1)
	if nd.DisseminateIfFull() || m.Get(metrics.BlocksBuilt) != 0 {
		t.Fatalf("sealed with %d B pending, below a full block", nd.Server().Mempool().Bytes())
	}
	submitSixteenths(t, nd, fullBlockRatio-1, fullBlockRatio)
	if !nd.DisseminateIfFull() {
		t.Fatal("a full block was not sealed")
	}
	wantOneFullBlock(t, m)
	if nd.DisseminateIfFull() || nd.Server().Mempool().Len() != 0 {
		t.Fatal("the turn sealed again from an empty pool")
	}

	const batch = 8
	nd, m = fullTestNode(t, batch)
	for i := range batch {
		if err := nd.Submit(types.Label(fmt.Sprintf("count/%d", i)), []byte{1}); err != nil {
			t.Fatal(err)
		}
		if sealed := nd.DisseminateIfFull(); sealed != (i == batch-1) {
			t.Fatalf("with %d of MaxBatch %d requests pending, sealed = %v", i+1, batch, sealed)
		}
	}
	if embedded := m.Get(metrics.RequestsEmbedded); embedded != batch {
		t.Fatalf("the count-full block embedded %d requests, want %d", embedded, batch)
	}
}

// TestStartedNodeSealsAFullBlock: on a started node the request that fills
// the block wakes the loop, which seals it — the tick is an hour away.
func TestStartedNodeSealsAFullBlock(t *testing.T) {
	nd, m := fullTestNode(t, 0)
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	submitSixteenths(t, nd, 0, fullBlockRatio)
	for deadline := time.Now().Add(10 * time.Second); m.Get(metrics.BlocksBuilt) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no block sealed within 10s of the pool holding a full block")
		}
	}
	nd.Stop()
	wantOneFullBlock(t, m)
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestFullBlockFloodCoalesces: a flood submitted while the loop is busy in
// another turn leaves one wake token, not one per request. Released, the
// loop seals a block per iteration for as long as the pool holds a full one:
// every request is embedded, in as few blocks as MaxBatch allows — far fewer
// than the pending bytes over the threshold.
func TestFullBlockFloodCoalesces(t *testing.T) {
	const flood = 600
	nd, m := fullTestNode(t, 0)
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	nd.post(func() {
		close(entered)
		<-release
	})
	<-entered
	submitSixteenths(t, nd, 0, flood)
	pending := nd.Server().Mempool().Bytes()
	close(release)
	for deadline := time.Now().Add(10 * time.Second); m.Get(metrics.RequestsEmbedded) < flood; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests embedded after 10s", m.Get(metrics.RequestsEmbedded), flood)
		}
	}
	nd.Stop()
	built, full := m.Get(metrics.BlocksBuilt), m.Get(metrics.BlocksSealedFull)
	if bound := int64(pending / nd.fullBytes); built != full || full > bound {
		t.Fatalf("%d blocks (%d sealed full) for %d B pending, want at most %d, all full", built, full, pending, bound)
	}
	if batches := int64((flood + nd.Server().MaxBatch() - 1) / nd.Server().MaxBatch()); full != batches {
		t.Fatalf("the flood went out in %d blocks, want %d of at most MaxBatch requests", full, batches)
	}
}

// TestSubmitAllocsBelowAFullBlock: below the threshold the wake costs
// Submit nothing — as many allocations as the server's own Submit.
func TestSubmitAllocsBelowAFullBlock(t *testing.T) {
	const runs = 64
	labels := make([]types.Label, runs+1) // AllocsPerRun warms up with one more
	for i := range labels {
		labels[i] = types.Label(fmt.Sprintf("a/%03d", i))
	}
	data := []byte{1}
	measure := func(submit func(types.Label, []byte) error) float64 {
		next := 0
		return testing.AllocsPerRun(runs, func() {
			if err := submit(labels[next], data); err != nil {
				t.Fatal(err)
			}
			next++
		})
	}
	nd, _ := fullTestNode(t, 0)
	twin, _ := fullTestNode(t, 0)
	viaNode, viaServer := measure(nd.Submit), measure(twin.Server().Submit)
	if nd.poolFull() {
		t.Fatal("the pool filled: the measurement is not below the threshold")
	}
	if viaNode > viaServer {
		t.Fatalf("Node.Submit allocates %.1f a request, the server's Submit %.1f", viaNode, viaServer)
	}
}
