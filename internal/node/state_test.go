package node_test

import (
	"fmt"
	"strings"
	"sync"
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
	"blockdag/internal/types"
)

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

// TestSealPruneCadence steps a durable single-server node on a virtual
// clock: the seal cycle fires when node.SealEvery has elapsed on the
// server's clock and not a tick before, seals only a frontier that moved,
// is served signed with the server's own key, and an idle state still has
// its growing chain pruned — with the served horizon following the cut under
// the unchanged commit. What is served is read as a joiner reads it: from
// the sync server's meta frame.
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
	const sealEvery = node.SealEvery
	net := simnet.New()
	machine := state.NewMachine()
	nd := steppedNode(t, net, roster, signers[0], core.Config{
		OnIndication: func(label types.Label, value []byte) {
			machine.Tree().Put([]byte(label), value)
			machine.AdvanceTo(uint64(machine.Tree().Len()))
		},
	}, node.Config{Store: st, State: machine})
	st.SetRuntime(nd) // the test steps the node: its owner registers it
	server := &syncsvc.Server{Store: st, Signer: signers[0]}
	meta := func() *syncsvc.SnapMeta {
		q := syncsvc.NewSnapMetaQuery()
		server.ServeCall(1, syncsvc.EncodeSnapMetaRequest(), pullStream{q})
		m, err := q.Result()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	grow := func(blocks int) {
		for i := 0; i < blocks; i++ {
			nd.Disseminate()
		}
	}
	horizon := func() uint64 { return st.Head().Horizon[0] }

	nd.Server().Request("ℓ", []byte("v"))
	grow(6)
	if machine.NextSlot() != 1 {
		t.Fatalf("setup: machine at slot %d, want the one delivery applied", machine.NextSlot())
	}
	runFor(net, sealEvery-time.Millisecond)
	nd.Tick()
	if meta().Has || st.Head().State != nil {
		t.Fatal("sealed before SealEvery elapsed")
	}
	runFor(net, time.Millisecond)
	nd.Tick()
	first := meta()
	if !first.Has || first.Signed.Commit.Slot != 1 {
		t.Fatalf("at SealEvery: served %+v, want the slot-1 commit", first)
	}
	if err := first.Signed.Verify(roster); err != nil || first.Signed.Server != signers[0].ID() {
		t.Fatalf("served commit signed by s%d: %v, want the server's own signature", first.Signed.Server, err)
	}
	cut := horizon()
	if cut == 0 || first.Horizon[0] != cut {
		t.Fatalf("seal did not prune: store horizon %d, served %v", cut, first.Horizon)
	}

	// Idle state, growing chain: nothing to seal, still something to cut —
	// but only once the cadence comes round again.
	grow(5)
	runFor(net, sealEvery-time.Millisecond)
	nd.Tick()
	if horizon() != cut {
		t.Fatal("pruned between cadences")
	}
	runFor(net, time.Millisecond)
	nd.Tick()
	idle := meta()
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

// TestServeSnapshotWhileTheLoopCuts: a started node's sync server answers
// meta and chunk calls from goroutines of its own — as a transport's are —
// while the node's loop seals and prunes. The server reads the store's head
// whole: every horizon it answers is one the store held, and no caller
// sees it go down; a chunk stream rebuilds the root its meta named, or a
// seal replaced that root in between and the stream asks for a re-query.
func TestServeSnapshotWhileTheLoopCuts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the loop for several seal periods")
	}
	const callers = 4
	roster, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{Roster: roster, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	machine := state.NewMachine()
	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signers[0], Protocol: brb.Protocol{},
		Transport: simnet.New().Transport(0), Clock: node.Clock(),
		OnIndication: func(label types.Label, value []byte) {
			machine.Tree().Put([]byte(label), value)
			machine.AdvanceTo(uint64(machine.Tree().Len()))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{Server: srv, Store: st, State: machine, DisseminateEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	server := &syncsvc.Server{Store: st, Signer: signers[0]}

	// held is every horizon the store held, as a watcher of its head saw
	// them: a cut comes at most once a node.SealEvery, so none is missed.
	// answered is every horizon a caller was served.
	var mu sync.Mutex
	held, answered := map[uint64]bool{}, map[uint64]bool{}
	watch := func() {
		mu.Lock()
		defer mu.Unlock()
		held[st.Head().Horizon[0]] = true
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			watch()
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	for c := range callers {
		wg.Add(1)
		go func(from types.ServerID) {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				q := syncsvc.NewSnapMetaQuery()
				server.ServeCall(from, syncsvc.EncodeSnapMetaRequest(), pullStream{q})
				m, err := q.Result()
				if err != nil {
					t.Errorf("meta call: %v", err)
					return
				}
				if !m.Has {
					continue // nothing sealed yet
				}
				if err := m.Signed.Verify(roster); err != nil || m.Signed.Server != signers[0].ID() {
					t.Errorf("meta signed by s%d: %v", m.Signed.Server, err)
					return
				}
				h := m.Horizon[0]
				if h < last {
					t.Errorf("served horizon went down: %d, then %d", last, h)
					return
				}
				last = h
				mu.Lock()
				answered[h] = true
				mu.Unlock()
				root := m.Signed.Commit.Root
				builder := state.NewBuilder(root)
				pull := syncsvc.NewSnapChunkPull(builder)
				server.ServeCall(from, pull.Request(root), pullStream{pull})
				if _, err := pull.Result(); err != nil {
					if !strings.Contains(err.Error(), "re-query") {
						t.Errorf("chunk call: %v", err)
						return
					}
				} else if _, err := builder.Finish(); err != nil {
					t.Errorf("served chunks do not rebuild the served root: %v", err)
					return
				}
			}
		}(types.ServerID(c + 1))
	}

	// Requests keep the state moving, so the loop re-seals while it cuts,
	// until the callers have been served three cuts.
	cuts := func() (n int) {
		mu.Lock()
		defer mu.Unlock()
		for h := range answered {
			if h > 0 {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(20 * time.Second)
	for i := 0; cuts() < 3 && time.Now().Before(deadline); i++ {
		nd.Request(types.Label(fmt.Sprintf("k/%d", i)), []byte{byte(i)})
		time.Sleep(40 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	watch()
	if cuts() < 3 {
		t.Fatalf("callers were served horizons %v while the store held %v: the loop did not cut under them", answered, held)
	}
	for h := range answered {
		if !held[h] {
			t.Fatalf("served horizon %d, which the store never held (it held %v)", h, held)
		}
	}
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
}
