package node_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// stateNode is one member of a durable TCP cluster running the full
// state-commitment cycle: Merkle machine fed from indications, runtime
// seal/serve/prune, and the three-tier sync service on ChanSync.
type stateNode struct {
	id      types.ServerID
	dir     string
	lb      *transport.LateBound
	tr      *tcpnet.Transport
	st      *store.Store
	syncSrv *syncsvc.Server
	machine *state.Machine
	nd      *node.Node
	ndRef   atomic.Pointer[node.Node]

	mu        sync.Mutex
	delivered map[types.Label][]byte
}

// newStateNode opens the store (recovering whatever is in dir — including
// a freshly installed snapshot) and binds the listener with the sync
// service. The runtime comes later, via boot, once the mesh is connected.
func newStateNode(t *testing.T, roster *crypto.Roster, id types.ServerID, dir, listen string) *stateNode {
	t.Helper()
	sn := &stateNode{id: id, dir: dir, delivered: make(map[types.Label][]byte)}
	st, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	sn.st = st
	sn.syncSrv = &syncsvc.Server{
		Store: st, Every: 5 * time.Millisecond, Burst: 100,
		Watermarks: func() []syncsvc.Watermark {
			if nd := sn.ndRef.Load(); nd != nil {
				return nd.Watermarks()
			}
			return nil
		},
		Snapshot: func() *syncsvc.ServedSnapshot {
			if nd := sn.ndRef.Load(); nd != nil {
				return nd.ServedSnapshot()
			}
			return nil
		},
	}
	sn.lb = &transport.LateBound{}
	tr, err := tcpnet.Listen(tcpnet.Config{
		Self:        id,
		ListenAddr:  listen,
		Endpoints:   map[transport.Channel]transport.Endpoint{transport.ChanGossip: sn.lb},
		Handlers:    map[transport.Channel]transport.Handler{transport.ChanSync: sn.syncSrv},
		DialBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		_ = st.Close()
		t.Fatal(err)
	}
	sn.tr = tr
	return sn
}

// boot builds the machine, core server, and runtime, then starts the
// loop. The indication callback mirrors every delivery into the machine
// — BRB has no slots, so the convergence point is the number of distinct
// labels, identical on every correct server at quiescence.
func (sn *stateNode) boot(t *testing.T, roster *crypto.Roster, signer *crypto.Signer, peers []types.ServerID) {
	t.Helper()
	sn.machine = state.NewMachine(0)
	srv, err := core.NewServer(core.Config{
		Roster:    roster,
		Signer:    signer,
		Protocol:  brb.Protocol{},
		Transport: sn.tr,
		Clock:     node.Clock(),
		OnIndication: func(label types.Label, value []byte) {
			sn.mu.Lock()
			sn.delivered[label] = value
			sn.mu.Unlock()
			sn.machine.Tree().Put([]byte(label), value)
			sn.machine.SealAt(uint64(sn.machine.Tree().Len()))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{
		Server:           srv,
		DisseminateEvery: 5 * time.Millisecond,
		TickEvery:        10 * time.Millisecond,
		Store:            sn.st,
		State: &node.StateSyncConfig{
			Machine:       sn.machine,
			Signer:        signer,
			SealEvery:     30 * time.Millisecond,
			ChunkBytes:    1 << 10,
			PruneKeepSeqs: 4,
		},
		CatchUp: &syncsvc.FetchConfig{
			Transport: sn.tr,
			Roster:    roster,
			Peers:     peers,
			Timeout:   10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sn.lb.Bind(nd)
	sn.nd = nd
	sn.ndRef.Store(nd)
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
}

func (sn *stateNode) deliveredValue(label types.Label) ([]byte, bool) {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	v, ok := sn.delivered[label]
	return v, ok
}

func (sn *stateNode) shutdown() {
	if sn.nd != nil {
		sn.nd.Stop()
	}
	_ = sn.tr.Close()
	_ = sn.st.Close()
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWipedNodeRejoinsViaSnapshotTier is the acceptance path of the
// snapshot catch-up tier over real TCP: a 4-node durable cluster seals
// Merkle state commitments and prunes history; one node is stopped and
// its store wiped; the replacement fetches a roster-certified snapshot
// (node.SnapshotJoin), restores from it without replaying any pruned
// history, reconverges with live traffic, and commits the same root as
// everyone else.
func TestWipedNodeRejoinsViaSnapshotTier(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	const n = 4
	roster, signers, err := crypto.LocalRoster(n)
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	dirs := make([]string, n)
	nodes := make([]*stateNode, n)
	for i := range nodes {
		dirs[i] = filepath.Join(base, fmt.Sprintf("s%d", i))
		nodes[i] = newStateNode(t, roster, types.ServerID(i), dirs[i], "127.0.0.1:0")
	}
	defer func() {
		for _, sn := range nodes {
			if sn != nil {
				sn.shutdown()
			}
		}
	}()
	peersOf := func(self int) (ps []types.ServerID) {
		for j := 0; j < n; j++ {
			if j != self {
				ps = append(ps, types.ServerID(j))
			}
		}
		return ps
	}
	for i := range nodes {
		for j := range nodes {
			if i == j {
				continue
			}
			if err := nodes[i].tr.Connect(types.ServerID(j), nodes[j].tr.Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := range nodes {
		nodes[i].boot(t, roster, signers[i], peersOf(i))
	}

	// The workload: one broadcast per member.
	label := func(i int) types.Label { return types.Label(fmt.Sprintf("greet/s%d", i)) }
	value := func(i int) []byte { return []byte(fmt.Sprintf("hello from s%d", i)) }
	for i := range nodes {
		nodes[i].nd.Request(label(i), value(i))
	}
	waitFor(t, 20*time.Second, "all deliveries", func() bool {
		for _, sn := range nodes {
			for i := 0; i < n; i++ {
				if _, ok := sn.deliveredValue(label(i)); !ok {
					return false
				}
			}
		}
		return true
	})
	// Every survivor must have sealed the quiescent state (slot n) and
	// pruned history below it before the wiped node tries to join.
	waitFor(t, 20*time.Second, "peers sealed and pruned", func() bool {
		for i := 1; i < n; i++ {
			served := nodes[i].nd.ServedSnapshot()
			if served == nil || served.Signed.Commit.Slot != n || len(served.Horizon) == 0 {
				return false
			}
		}
		return true
	})
	wantRoot := nodes[1].nd.ServedSnapshot().Signed.Commit.Root

	// Kill node 0 and wipe its store: its history below the survivors'
	// horizons now exists nowhere. The replacement will rebind the same
	// address — in a deployment that is the node's stable roster address,
	// which the survivors' senders keep redialing.
	addr0 := nodes[0].tr.Addr()
	nodes[0].shutdown()
	nodes[0] = nil
	if err := os.RemoveAll(dirs[0]); err != nil {
		t.Fatal(err)
	}

	// Snapshot join over a throwaway client transport, before the new
	// store ever opens — the wiped-node entry point.
	joinTr, err := tcpnet.Listen(tcpnet.Config{
		Self:       0,
		ListenAddr: "127.0.0.1:0",
		Endpoints:  map[transport.Channel]transport.Endpoint{transport.ChanGossip: &transport.LateBound{Buffer: -1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Connects after the wipe race the peers' teardown of the dead
	// node's old connections: retry until the stale registration clears.
	connectRetry := func(tr *tcpnet.Transport, id types.ServerID, addr string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			err := tr.Connect(id, addr)
			if err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("connect to s%d: %v", id, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for j := 1; j < n; j++ {
		connectRetry(joinTr, types.ServerID(j), nodes[j].tr.Addr())
	}
	fetched, err := node.SnapshotJoin(dirs[0], syncsvc.SnapshotFetchConfig{
		Transport: joinTr,
		Roster:    roster,
		Peers:     []types.ServerID{1, 2, 3},
		Timeout:   10 * time.Second,
	})
	_ = joinTr.Close()
	if err != nil {
		t.Fatal(err)
	}
	if fetched == nil {
		t.Fatal("SnapshotJoin returned nil on an empty dir")
	}
	if fetched.Commit.Slot != n || fetched.Commit.Root != wantRoot {
		t.Fatalf("joined commit (%d, %x), want (%d, %x)",
			fetched.Commit.Slot, fetched.Commit.Root[:8], n, wantRoot[:8])
	}
	if !state.CertifiedBy(fetched.Cert, roster) {
		t.Fatal("fetched certificate does not certify the commit")
	}

	// The replacement opens the installed store: certified checkpoint,
	// base stand-ins, no blocks — and restores the machine from it.
	rn := newStateNode(t, roster, 0, dirs[0], addr0)
	nodes[0] = rn
	if ckpt := rn.st.StateCheckpoint(); ckpt == nil || ckpt.Root != wantRoot {
		t.Fatalf("installed store checkpoint = %+v, want root %x", ckpt, wantRoot[:8])
	}
	if len(rn.st.Base()) == 0 {
		t.Fatal("installed store has no base stand-ins")
	}
	horizon := rn.st.Horizon()
	if len(horizon) == 0 {
		t.Fatal("installed store has no pruned horizon")
	}
	// The survivors' senders for s0 are already redialing addr0 on their
	// own; only the rejoined node needs to dial out.
	for j := 1; j < n; j++ {
		connectRetry(rn.tr, types.ServerID(j), nodes[j].tr.Addr())
	}
	rn.boot(t, roster, signers[0], []types.ServerID{fetched.Anchor, 1, 2, 3})
	if root := rn.machine.Root(); root != wantRoot {
		t.Fatalf("restored machine root %x, want %x", root[:8], wantRoot[:8])
	}
	for i := 0; i < n; i++ {
		got, ok := rn.machine.Tree().Get([]byte(label(i)))
		if !ok || string(got) != string(value(i)) {
			t.Fatalf("restored state missing %s (got %q)", label(i), got)
		}
	}
	// Nothing below the horizon was replayed: every journaled block sits
	// at or above the installed horizon for its builder.
	for _, b := range rn.st.Blocks() {
		if h, ok := horizon[b.Builder]; ok && b.Seq < h {
			t.Fatalf("rejoined store replayed pruned history: s%d seq %d < horizon %d",
				b.Builder, b.Seq, h)
		}
	}

	// Live reconvergence: a fresh broadcast submitted at the rejoined
	// node must deliver everywhere, and every node — the rejoined one
	// included — must then seal the same advanced root.
	rn.nd.Request("post/rejoin", []byte("back from the dead"))
	deadline := time.Now().Add(20 * time.Second)
	for {
		missing := 0
		for _, sn := range nodes {
			if _, ok := sn.deliveredValue("post/rejoin"); !ok {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			for i, sn := range nodes {
				_, ok := sn.deliveredValue("post/rejoin")
				t.Logf("s%d delivered post/rejoin: %v (node err: %v, dag len %d)",
					i, ok, sn.nd.Err(), sn.nd.Server().DAG().Len())
			}
			t.Fatal("timeout waiting for post-rejoin delivery")
		}
		time.Sleep(5 * time.Millisecond)
	}
	waitFor(t, 20*time.Second, "roots converge after rejoin", func() bool {
		var root [32]byte
		for i, sn := range nodes {
			served := sn.nd.ServedSnapshot()
			if served == nil || served.Signed.Commit.Slot != n+1 {
				return false
			}
			if i == 0 {
				root = served.Signed.Commit.Root
			} else if served.Signed.Commit.Root != root {
				return false
			}
		}
		return true
	})
	for i, sn := range nodes {
		if err := sn.nd.Err(); err != nil {
			t.Fatalf("node %d unhealthy after rejoin: %v", i, err)
		}
	}
}

// TestSealPruneCadence steps a durable single-server node on a virtual
// clock: the seal cycle fires when SealEvery has elapsed on the server's
// clock and not a tick before, seals only a frontier that moved, and an
// idle state still has its growing chain pruned — with the served
// base/horizon following the cut under the unchanged commit.
func TestSealPruneCadence(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	const sealEvery, keep = time.Second, 2
	net := simnet.New()
	machine := state.NewMachine(0)
	nd := steppedNode(t, net, roster, signers[0], core.Config{
		OnIndication: func(label types.Label, value []byte) {
			machine.Tree().Put([]byte(label), value)
			machine.SealAt(uint64(machine.Tree().Len()))
		},
	}, node.Config{Store: st, State: &node.StateSyncConfig{
		Machine: machine, Signer: signers[0], SealEvery: sealEvery, PruneKeepSeqs: keep,
	}})
	grow := func(blocks int) {
		for i := 0; i < blocks; i++ {
			nd.Disseminate()
		}
	}
	horizon := func() uint64 { return st.Horizon()[0] }

	nd.Server().Request("ℓ", []byte("v"))
	grow(6)
	if machine.NextSlot() != 1 {
		t.Fatalf("setup: machine at slot %d, want the one delivery applied", machine.NextSlot())
	}
	net.RunFor(sealEvery - time.Millisecond)
	nd.Tick()
	if nd.ServedSnapshot() != nil || st.StateCheckpoint() != nil {
		t.Fatal("sealed before SealEvery elapsed")
	}
	net.RunFor(time.Millisecond)
	nd.Tick()
	first := nd.ServedSnapshot()
	if first == nil || first.Signed.Commit.Slot != 1 {
		t.Fatalf("at SealEvery: served %+v, want the slot-1 commit", first)
	}
	cut := horizon()
	if cut == 0 || first.Horizon[0] != cut {
		t.Fatalf("seal did not prune: store horizon %d, served %v", cut, first.Horizon)
	}

	// Idle state, growing chain: nothing to seal, still something to cut —
	// but only once the cadence comes round again.
	grow(5)
	net.RunFor(sealEvery - time.Millisecond)
	nd.Tick()
	if horizon() != cut {
		t.Fatal("pruned between cadences")
	}
	net.RunFor(time.Millisecond)
	nd.Tick()
	idle := nd.ServedSnapshot()
	if horizon() != cut+5 || idle.Horizon[0] != cut+5 {
		t.Fatalf("idle state was not pruned: store horizon %d, served %v, want %d", horizon(), idle.Horizon, cut+5)
	}
	if idle.Signed.Commit != first.Signed.Commit {
		t.Fatalf("idle state re-sealed: %+v → %+v", first.Signed.Commit, idle.Signed.Commit)
	}
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
}
