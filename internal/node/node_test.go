package node_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/deploy"
	"blockdag/internal/gossip"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/roster"
	"blockdag/internal/simnet"
	"blockdag/internal/types"
)

// tcpCluster stands up n full nodes over real TCP on loopback: the
// production assembly (package deploy), dev-fixture identities.
type tcpCluster struct {
	nodes []*node.Node

	mu   sync.Mutex
	inds map[int]map[types.Label][][]byte
}

func newTCPCluster(t *testing.T, n int) *tcpCluster {
	t.Helper()
	fx, err := roster.Dev(n)
	if err != nil {
		t.Fatal(err)
	}
	c := &tcpCluster{inds: make(map[int]map[types.Label][][]byte)}
	members := make([]*deploy.Assembly, n)
	for i := range members {
		identity, err := fx.Identity(i)
		if err != nil {
			t.Fatal(err)
		}
		c.inds[i] = make(map[types.Label][][]byte)
		members[i], err = deploy.Listen(deploy.Config{
			Identity:   identity,
			ListenAddr: "127.0.0.1:0",
			Protocol:   brb.Protocol{},
			OnIndication: func(label types.Label, value []byte) {
				c.mu.Lock()
				defer c.mu.Unlock()
				c.inds[i][label] = append(c.inds[i][label], value)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = members[i].Close() })
	}
	for _, m := range members {
		if err := m.Boot(func(id types.ServerID) string { return members[id].Addr() }); err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, m.Node)
	}
	return c
}

func (c *tcpCluster) deliveredAt(server int, label types.Label) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([][]byte, len(c.inds[server][label]))
	copy(out, c.inds[server][label])
	return out
}

// TestEndToEndOverTCP is the full-stack integration test: BRB embedded in
// a block DAG, gossiped over real TCP connections, with the concurrent
// node runtime — the deployment Figure 1 describes.
func TestEndToEndOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	const n = 4
	c := newTCPCluster(t, n)
	c.nodes[0].Request("ℓ1", []byte("42"))
	c.nodes[2].Request("ℓ2", []byte("99"))

	deadline := time.Now().Add(15 * time.Second)
	allDone := func() bool {
		for i := 0; i < n; i++ {
			if len(c.deliveredAt(i, "ℓ1")) != 1 || len(c.deliveredAt(i, "ℓ2")) != 1 {
				return false
			}
		}
		return true
	}
	for !allDone() {
		if time.Now().After(deadline) {
			for i := 0; i < n; i++ {
				t.Logf("server %d: ℓ1=%q ℓ2=%q", i,
					c.deliveredAt(i, "ℓ1"), c.deliveredAt(i, "ℓ2"))
			}
			t.Fatal("not all servers delivered over TCP within 15s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i := 0; i < n; i++ {
		if got := c.deliveredAt(i, "ℓ1"); !bytes.Equal(got[0], []byte("42")) {
			t.Fatalf("server %d delivered %q on ℓ1", i, got)
		}
		if got := c.deliveredAt(i, "ℓ2"); !bytes.Equal(got[0], []byte("99")) {
			t.Fatalf("server %d delivered %q on ℓ2", i, got)
		}
	}
	for i, nd := range c.nodes {
		if err := nd.Err(); err != nil {
			t.Fatalf("node %d unhealthy: %v", i, err)
		}
	}
}

// TestManyInstancesOverTCP pushes several parallel instances through the
// real stack.
func TestManyInstancesOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	const n, instances = 4, 8
	c := newTCPCluster(t, n)
	for i := 0; i < instances; i++ {
		c.nodes[i%n].Request(types.Label(fmt.Sprintf("inst/%d", i)), []byte{byte(i)})
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		done := true
		for srv := 0; srv < n && done; srv++ {
			for i := 0; i < instances; i++ {
				if len(c.deliveredAt(srv, types.Label(fmt.Sprintf("inst/%d", i)))) != 1 {
					done = false
					break
				}
			}
		}
		if done {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("parallel instances incomplete over TCP within 20s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestNodeLifecycle(t *testing.T) {
	members, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.Config{
		Roster: members, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: simnet.New().Transport(0), Clock: node.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	nd.Stop()
	nd.Stop() // idempotent
	// Post-stop interactions must not hang.
	nd.Request("x", []byte("late"))
	nd.Deliver(0, []byte("late"))
	if err := nd.Err(); err != nil {
		t.Fatalf("Err = %v", err)
	}
}

// TestStartedNodeReasksOnItsPeriod: a started node's housekeeping rides its
// period turn. It holds a peer's block whose parent never arrives: the FWD
// for the parent goes out as the block is buffered, and the re-ask
// gossip.ResendAfter later comes from the Tick of a period turn — the test
// never calls Tick itself.
func TestStartedNodeReasksOnItsPeriod(t *testing.T) {
	members, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	m := &metrics.Metrics{}
	srv, err := core.NewServer(core.Config{
		Roster: members, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: simnet.New().Transport(0), Clock: node.Clock(), Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{Server: srv, DisseminateEvery: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	parent := block.New(1, 0, nil, nil)
	if err := parent.Seal(signers[1]); err != nil {
		t.Fatal(err)
	}
	child := block.New(1, 1, []block.Ref{parent.Ref()}, nil)
	if err := child.Seal(signers[1]); err != nil {
		t.Fatal(err)
	}
	nd.Deliver(1, gossip.EncodeBlockMsg(child)) // the parent never comes
	for deadline := time.Now().Add(10 * time.Second); m.Get(metrics.FwdRequestsSent) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d FWD requests within 10s of buffering a block whose parent is missing, want the ask and a re-ask",
				m.Get(metrics.FwdRequestsSent))
		}
	}
}

// TestSteppedDeliverIsTheDeliveryTurn: on a node its owner steps, Deliver
// runs the delivery turn inline, so more deliveries than the loop's
// ingestion buffer holds (256) neither block nor wait for a Start that never
// comes, and each one's block is in the DAG when Deliver returns.
func TestSteppedDeliverIsTheDeliveryTurn(t *testing.T) {
	const blocks = 300
	members, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	nd := steppedNode(t, simnet.New(), members, signers[0], core.Config{}, node.Config{})
	var parent []block.Ref
	for seq := uint64(0); seq < blocks; seq++ {
		b := block.New(1, seq, parent, nil)
		if err := b.Seal(signers[1]); err != nil {
			t.Fatal(err)
		}
		nd.Deliver(1, gossip.EncodeBlockMsg(b))
		if !nd.Server().DAG().Contains(b.Ref()) {
			t.Fatalf("block %d not inserted when its Deliver returned", seq)
		}
		parent = []block.Ref{b.Ref()}
	}
}

func TestNodeConfigValidation(t *testing.T) {
	if _, err := node.New(node.Config{}); err == nil {
		t.Fatal("config without server accepted")
	}
}
