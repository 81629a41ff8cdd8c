package node_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// TestNodeTickNeverCheckpoints: a running node never rewrites its store on
// its own. The block DAG is append-only and a WAL record cites by
// back-reference, so a snapshot that keeps every block would save only the
// record framing; only a cut (PruneTo) changes a store beyond its appends.
// The deprecated CheckpointEverySegments, set as the frozen benchmark
// harness sets it, changes nothing.
func TestNodeTickNeverCheckpoints(t *testing.T) {
	dir := t.TempDir()
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	var ticks time.Duration
	st, err := store.Open(dir, store.Options{
		Roster: roster,
		Sync:   store.SyncInterval,
		Clock:  func() time.Duration { ticks += time.Second; return ticks }, // every fsync due
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	m := &metrics.Metrics{}
	srv, err := core.NewServer(core.Config{
		Roster:    roster,
		Signer:    signers[0],
		Protocol:  brb.Protocol{},
		Transport: simnet.New().Transport(0),
		Clock:     node.Clock(),
		Metrics:   m,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{
		Server:           srv,
		DisseminateEvery: time.Hour, // never: the turns are stepped
		Store:            st,

		CheckpointEverySegments: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Step the block and housekeeping turns — sixty blocks, Tick after
	// every sixteenth — so that what is left behind depends on no timer. Each block carries four 48 KiB requests, so the
	// chain (11 MiB) spreads over more than one 8 MiB WAL segment.
	const blocks, blocksPerTick, perBlock = 60, 16, 4
	data := make([]byte, 48<<10)
	for i := 1; i <= blocks; i++ {
		for j := 0; j < perBlock; j++ {
			if err := nd.Submit(types.Label(fmt.Sprintf("big/%d/%d", i, j)), data); err != nil {
				t.Fatal(err)
			}
		}
		nd.Disseminate()
		if i%blocksPerTick == 0 {
			nd.Tick()
		}
	}
	nd.Stop()
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	if built := m.Get(metrics.BlocksBuilt); built != blocks {
		t.Fatalf("built %d blocks, want %d", built, blocks)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".wal" {
			t.Fatalf("%s beside the WAL segments: the node rewrote its store", e.Name())
		}
	}
	if len(entries) < 2 {
		t.Fatalf("%d WAL segments: want the chain spread over several", len(entries))
	}
	reopened, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	if got := reopened.Len(); got != blocks {
		t.Fatalf("reopened store holds %d blocks, want %d", got, blocks)
	}
}

// TestNodeCatchUpFromPeerStore: a node with an empty store bulk-syncs from
// a peer restarted over its store, in its loop's first poll over TCP, and
// restores the full chain — then a restart replays the journaled stream
// from disk without re-syncing.
func TestNodeCatchUpFromPeerStore(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	// Build history on server 0's store by running a solo durable node, then
	// restart it over that store: the peer that serves.
	peerDir := t.TempDir()
	chainLen := runDurableNode(t, peerDir, roster, signers[0])
	if chainLen < 3 {
		t.Fatalf("peer built only %d blocks", chainLen)
	}
	peerStore, err := store.Open(peerDir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = peerStore.Close() })
	startedPeer(t, roster, signers[0], peerStore)

	ep := map[transport.Channel]transport.Endpoint{transport.ChanGossip: &transport.LateBound{}}
	peerTr, err := tcpnet.Listen(tcpnet.Config{
		Self: 0, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, 0), Endpoints: ep,
		Handlers: map[transport.Channel]transport.Handler{
			transport.ChanSync: &syncsvc.Server{Store: peerStore},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = peerTr.Close() }()
	myTr, err := tcpnet.Listen(tcpnet.Config{
		Self: 1, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, 1),
		Endpoints: map[transport.Channel]transport.Endpoint{transport.ChanGossip: &transport.LateBound{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = myTr.Close() }()
	if err := myTr.Connect(0, peerTr.Addr()); err != nil {
		t.Fatal(err)
	}

	myDir := t.TempDir()
	myStore, err := store.Open(myDir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.Config{
		Roster:    roster,
		Signer:    signers[1],
		Protocol:  brb.Protocol{},
		Transport: myTr,
		Clock:     node.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{
		Server:           srv,
		Store:            myStore,
		DisseminateEvery: time.Hour, // builds nothing of its own
		CatchUp: &syncsvc.FetchConfig{
			Transport: myTr,
			Roster:    roster,
			Peers:     []types.ServerID{0},
			Timeout:   10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	first := firstPoll(t, nd)
	nd.Stop()
	if first.Outcome != node.FirstCaughtUp || first.Err != nil || first.Peer != 0 {
		t.Fatalf("first poll = %+v", first)
	}
	if first.Blocks != chainLen {
		t.Fatalf("caught up %d blocks, want %d", first.Blocks, chainLen)
	}
	if got := srv.DAG().Len(); got != chainLen {
		t.Fatalf("restored DAG has %d blocks, want %d", got, chainLen)
	}
	// The stream was journaled: a restart replays it from disk with no
	// peer in sight.
	if err := myStore.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.Open(myDir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	if got := len(reopened.Blocks()); got != chainLen {
		t.Fatalf("journal replays %d blocks after restart, want %d", got, chainLen)
	}
}
