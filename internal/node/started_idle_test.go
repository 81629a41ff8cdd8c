package node_test

import (
	"testing"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// frames is a gossip endpoint that hands what it is delivered to a channel.
type frames chan []byte

func (f frames) Deliver(_ types.ServerID, payload []byte) {
	select {
	case f <- payload:
	default:
	}
}

// TestStartedNodeSealsAnIdleRequest: a started node whose tick is an hour
// away, idle since New and past its first block, embeds a request submitted
// over its Submit at once: Submit wakes the loop, the loop seals the request,
// and the block reaches a peer over a real socket — well before the tick.
func TestStartedNodeSealsAnIdleRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	got := make(frames, 16)
	peer, err := tcpnet.Listen(tcpnet.Config{
		Self: 1, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, 1),
		Endpoints: map[transport.Channel]transport.Endpoint{transport.ChanGossip: got},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = peer.Close() })
	tr := tcpPeer(t, 0, nil)
	if err := tr.Connect(1, peer.Addr()); err != nil {
		t.Fatal(err)
	}
	m := &metrics.Metrics{}
	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: tr, Clock: node.Clock(), Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{Server: srv, DisseminateEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	nd.Disseminate() // its first block, as its first tick would: the node knows its tip
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("the first block did not reach the peer within 10s")
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	began := time.Now()
	if err := nd.Submit("lone", []byte("v")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("no block reached the peer within 10s of a request to an idle node")
	}
	took := time.Since(began)
	nd.Stop()
	t.Logf("submit to the block at the peer: %v", took)
	if built, idle, embedded := m.Get(metrics.BlocksBuilt), m.Get(metrics.BlocksSealedIdle), m.Get(metrics.RequestsEmbedded); built != 2 || idle != 1 || embedded != 1 {
		t.Fatalf("built %d blocks (%d sealed idle) embedding %d requests, want the first and the idle seal of the request", built, idle, embedded)
	}
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
}
