package node_test

import (
	"cmp"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/peerscore"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// dagCount reads one of d's counters by family name.
func dagCount(d *dag.DAG, family string) int64 {
	for id, f := range dag.Families {
		if f.Name == family {
			return d.Counts().Get(metrics.ID(id))
		}
	}
	panic("no " + family + " row")
}

// journalReads reads d's journal_block_reads_total.
func journalReads(d *dag.DAG) int64 { return dagCount(d, "journal_block_reads_total") }

// streamCounter is a node as a sync server's block source, counting the
// streams it is asked for: every turn a serve takes runs inside one.
type streamCounter struct {
	*node.Node
	streams int
}

func (c *streamCounter) Stream(next map[types.ServerID]uint64, chunk int, send func([]*block.Block) error) error {
	c.streams++
	return c.Node.Stream(next, chunk, send)
}

// chunked is a node as a sync server's block source, read in chunks of its
// own size, whatever the server asks: small chunks make a serve of many turns.
type chunked struct {
	*node.Node
	bytes int
}

func (c chunked) Stream(next map[types.ServerID]uint64, _ int, send func([]*block.Block) error) error {
	return c.Node.Stream(next, c.bytes, send)
}

// discard is a server stream that counts what it is sent and keeps none of it.
type discard struct{ frames, bytes int }

func (d *discard) Send(frame []byte) error { d.frames++; d.bytes += len(frame); return nil }
func (d *discard) Close(error)             {}

// pullStream feeds a server stream straight into a client call's sink: a
// pull, or a snapshot-meta query.
type pullStream struct{ transport.CallSink }

func (s pullStream) Send(frame []byte) error { s.OnFrame(frame); return nil }
func (s pullStream) Close(err error)         { s.OnDone(err) }

// TestServeReadsWhatItSends is the serve path's ruler. A node restored from
// a store of 16 384 blocks holds their rows and, all but the last rounds
// released, not their bytes. A requester 10 blocks behind is sent those 10:
// at most 10 are read back from the journal, and the serve allocates in
// proportion to what it sends, not to the history (a scan of the store
// decodes all 16 384). A requester that lacks nothing costs no read and no
// turn of the node. The rows are read back from WAL segments, and — the store
// cut before serving — a requester that also lacks rows below the horizon is
// sent the rows above it alone, read back from the WAL segments the cut left.
func TestServeReadsWhatItSends(t *testing.T) {
	if raceEnabled {
		t.Skip("counts reads and allocations; under the race detector its 16 384 signatures only take long")
	}
	const count = 16384
	h := dagtest.NewHarness(4)
	dir := t.TempDir()
	journalPayloadChain(t, h, dir, payloadChain(h, count, 16))
	t.Run("wal", func(t *testing.T) { serveReadsWhatItSends(t, h, dir, count, false) })
	t.Run("prune", func(t *testing.T) { serveReadsWhatItSends(t, h, dir, count, true) })
}

// serveReadsWhatItSends is TestServeReadsWhatItSends over the count blocks
// journaled in dir. If prune is set, the store is cut first just below the
// rows the requester lacks, and the requester lacks the 2 rows of each chain
// under the cut as well.
func serveReadsWhatItSends(t *testing.T, h *dagtest.Harness, dir string, count int, prune bool) {
	const lag, under = 10, 2
	st, err := store.Open(dir, store.Options{Roster: h.Roster, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	srv, err := core.NewServer(core.Config{
		Roster: h.Roster, Signer: h.Signers[0], Protocol: brb.Protocol{},
		Transport: simnet.New().Transport(0), Clock: node.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{Server: srv, Store: st, DisseminateEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	d := srv.DAG()
	if held := dagCount(d, "dag_blocks_held"); d.Len() != count || held > int64(count/100) {
		t.Fatalf("restored %d rows, %d held, want %d rows and the bytes released", d.Len(), held, count)
	}
	counter := &streamCounter{Node: nd}
	st.SetRuntime(counter) // the test steps the node: its owner registers it
	server := &syncsvc.Server{Store: st, Watermarks: nd.Watermarks}

	// The requester holds every row but the last lag: its horizon is the
	// heads, less the chain positions of those rows.
	next := make(map[types.ServerID]uint64)
	for _, wm := range syncsvc.Held(d) {
		next[wm.Builder] = wm.NextSeq
	}
	for v := d.Len() - lag; v < d.Len(); v++ {
		id, seq := d.Pos(v)
		next[id] = min(next[id], seq)
	}
	var behind []syncsvc.Watermark
	for id, seq := range next {
		if prune {
			seq -= under
		}
		behind = append(behind, syncsvc.Watermark{Builder: id, NextSeq: seq})
	}
	if prune {
		st.SetStateCheckpoint(&store.StateCheckpoint{Slot: 1})
		if err := st.PruneTo(d, next); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if f.Name() != "head" && filepath.Ext(f.Name()) != ".wal" {
				t.Fatalf("the cut left %s: every row must be read back from a WAL segment", f.Name())
			}
		}
	}
	slices.SortFunc(behind, func(a, b syncsvc.Watermark) int { return cmp.Compare(a.Builder, b.Builder) })

	pull := syncsvc.NewPull(h.Roster, behind, 0, nil)
	reads := journalReads(d)
	server.ServeCall(1, pull.Request(), pullStream{pull})
	got, err := pull.Result()
	if err != nil || len(got) != lag {
		t.Fatalf("served %d blocks (err %v), want the %d the requester lacks", len(got), err, lag)
	}
	for i, b := range got {
		if want := d.RefAt(d.Len() - lag + i); b.Ref() != want {
			t.Fatalf("block %d of the stream is %v, want row %d's %v", i, b.Ref(), d.Len()-lag+i, want)
		}
	}
	// A row under the cut costs the store's answer that it is pruned.
	lacks := lag
	if prune {
		lacks += under * len(next)
	}
	read := journalReads(d) - reads
	if read == 0 || read > int64(lacks) {
		t.Fatalf("serving %d blocks read %d back from the journal, want 1 to %d", lag, read, lacks)
	}

	// What a serve allocates, its frames sent and dropped: a fixed part and a
	// few allocations and bytes per block sent.
	req := pull.Request()
	var once discard
	server.ServeCall(1, req, &once)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 8
	allocs := testing.AllocsPerRun(runs, func() { server.ServeCall(1, req, &discard{}) })
	runtime.ReadMemStats(&after)
	bytes := int((after.TotalAlloc - before.TotalAlloc) / (runs + 1)) // AllocsPerRun warms up once
	t.Logf("%d of %d rows sent, %d read back: %.0f allocs and %d B a serve, %d B on the wire", lag, count, read, allocs, bytes, once.bytes)
	if maxAllocs, maxBytes := 50+8*lacks, 8<<10+4*once.bytes; allocs > float64(maxAllocs) || bytes > maxBytes {
		t.Fatalf("a %d-block serve allocates %.0f times and %d B, want O(rows lacked): ≤ %d and ≤ %d B", lag, allocs, bytes, maxAllocs, maxBytes)
	}

	// Up to date: the early answer, on the calling goroutine.
	reads, streams := journalReads(d), counter.streams
	upToDate := syncsvc.NewPull(h.Roster, syncsvc.Held(d), 0, nil)
	server.ServeCall(1, upToDate.Request(), pullStream{upToDate})
	if got, err := upToDate.Result(); err != nil || len(got) != 0 {
		t.Fatalf("up-to-date requester: %d blocks, err %v", len(got), err)
	}
	if r, s := journalReads(d)-reads, counter.streams-streams; r != 0 || s != 0 {
		t.Fatalf("an up-to-date requester cost %d reads and %d streams", r, s)
	}
}

// TestServeWhileTheLoopInserts: a started node serves pulls over real
// sockets while its loop inserts gossiped blocks and releases what every
// chain has read — the serve's reads are turns of that loop, so the race
// detector has nothing to find. Each pull is absorbed whole, and the
// requester ends up holding at least the heads the server had when the pull
// went out.
func TestServeWhileTheLoopInserts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	const journaled, gossipedLater, pulls = 256, 512, 6
	h := dagtest.NewHarness(4)
	chain := payloadChain(h, journaled+gossipedLater, 64)
	dir := t.TempDir()
	journalPayloadChain(t, h, dir, chain[:journaled])
	st, err := store.Open(dir, store.Options{Roster: h.Roster, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	peer := startedPeer(t, h.Roster, h.Signers[0], st)
	peerTr := tcpPeer(t, 0, &syncsvc.Server{Store: onStore(t, chunked{peer, 2 << 10}), Watermarks: peer.Watermarks})

	tr := tcpPeer(t, 1, nil)
	if err := tr.Connect(0, peerTr.Addr()); err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.Config{
		Roster: h.Roster, Signer: h.Signers[1], Protocol: brb.Protocol{},
		Transport: tr, Clock: node.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	requester, err := node.New(node.Config{Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(requester.Stop)

	inserting := make(chan struct{})
	go func() {
		defer close(inserting)
		for _, msg := range asGossip(2, chain[journaled:]) {
			peer.Deliver(msg.From, msg.Payload)
		}
	}()
	for i := 0; i < pulls; i++ {
		before := peer.Watermarks()
		done := make(chan error, 1)
		requester.PullFrom(0, func(_ uint64, _ int, err error) { done <- err })
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("pull %d: %v", i, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("pull %d never settled", i)
		}
		// The requester is not started: its absorb ran on the transport's
		// goroutine before done, and its chain heads are safe to read.
		held := make(map[types.ServerID]uint64)
		for _, wm := range syncsvc.Held(srv.DAG()) {
			held[wm.Builder] = wm.NextSeq
		}
		if syncsvc.Behind(held, before) {
			t.Fatalf("pull %d: requester holds %v, the server held %v when it asked", i, held, before)
		}
	}
	<-inserting
	waitFor(t, 10*time.Second, "the peer to insert every gossiped block", func() bool {
		return syncsvc.Lag(map[types.ServerID]uint64{}, peer.Watermarks()) == uint64(len(chain))
	})
	done := make(chan error, 1)
	requester.PullFrom(0, func(_ uint64, _ int, err error) { done <- err })
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if got := srv.DAG().Len(); got != len(chain) {
		t.Fatalf("requester holds %d blocks after the last pull, want all %d", got, len(chain))
	}
	if err := peer.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestCatchUpSkipsAPeerNotServing: a peer whose runtime is not up refuses
// with syncsvc.ErrNotServing, and a requester moves on without charging it —
// a started node's first poll at once to the next peer, over real sockets,
// and a stepped follower at its next poll, counting the refusal with the
// throttled ones.
func TestCatchUpSkipsAPeerNotServing(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	chain := sealChain(t, signers[0], nil, 20)
	idle, err := store.Open(t.TempDir(), store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = idle.Close() }()
	booting := &syncsvc.Server{Store: idle}

	nd, _, _ := startupNode(t, roster, signers[2], nil, time.Hour, 10*time.Second, tcpPeer(t, 0, booting), tcpPeer(t, 1, serve(t, chain)))
	if rep := nd.FollowReport().First; rep.Outcome != node.FirstCaughtUp || rep.Err != nil || rep.Peer != 1 || rep.Blocks != len(chain) {
		t.Fatalf("first poll = %+v, want %d blocks from peer 1", rep, len(chain))
	}
	if s := dagtest.Signals(nd.Server().Scores(), 0); s != 0 {
		t.Fatalf("the peer not serving yet was charged %d signals", s)
	}
	if d := booting.Counts().Get(syncsvc.DropStarting); d != 1 {
		t.Fatalf("starting drops = %d, want 1", d)
	}

	net := simnet.New()
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{Store: idle, Clock: net.Now})
	net.RegisterHandler(1, transport.ChanSync, serve(t, chain))
	scores := peerscore.New()
	follower := steppedNode(t, net, roster, signers[2], core.Config{Scores: scores}, node.Config{Store: emptyStore(t, roster)})
	for poll := 0; poll < 2; poll++ {
		follower.FollowPoll()
		net.Run()
	}
	if rep := follower.FollowReport(); rep.Polls != 2 || rep.Throttled != 1 || rep.Errors != 0 || rep.Blocks != len(chain) || rep.LastErr != nil {
		t.Fatalf("follow report %+v, want a refusal, then the chain from the next peer", rep)
	}
	if s := dagtest.Signals(scores, 0); s != 0 {
		t.Fatalf("the follower charged the peer not serving yet %d signals", s)
	}
}
