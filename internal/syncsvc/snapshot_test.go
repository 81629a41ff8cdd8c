package syncsvc_test

import (
	"bytes"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/simnet"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// snapFixture is a sealed state snapshot as a serving peer would hold
// it: the tree, its export chunks, and the commit the peers sign.
type snapFixture struct {
	tree   *state.Tree
	chunks [][]byte
	commit state.Commit
}

// buildSnapFixture seals a deterministic tree of n keys into small
// chunks (so streams span several frames).
func buildSnapFixture(t testing.TB, n int, slot uint64) *snapFixture {
	t.Helper()
	tr := state.NewTree()
	for i := 0; i < n; i++ {
		key := []byte("account/" + strings.Repeat("k", i%7) + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+(i/260)%26)))
		tr.Put(key, []byte{byte(i), byte(i >> 8), 0xAB})
	}
	return &snapFixture{
		tree:   tr,
		chunks: state.Export(tr, 256),
		commit: state.Commit{Slot: slot, Root: tr.Root()},
	}
}

// head is the store head a peer holding the fixture serves: its commit
// over chunks (the fixture's own, or a lie), no base or horizon.
func (f *snapFixture) head(chunks [][]byte) *store.Head {
	return &store.Head{State: &store.StateCheckpoint{Slot: f.commit.Slot, Root: f.commit.Root, Chunks: chunks}}
}

// snapServer is a sync server serving h signed by signer: h installed into
// a store on which a runtime is registered.
func snapServer(t testing.TB, signer *crypto.Signer, h *store.Head) *syncsvc.Server {
	t.Helper()
	st := onStore(t, fixed(nil))
	if err := st.InstallSnapshot(h); err != nil {
		t.Fatal(err)
	}
	return &syncsvc.Server{Store: st, Signer: signer}
}

// TestSnapMetaFrameRoundTrip: the meta frame survives encode/decode with
// every field populated, and the "no snapshot" answer round-trips too.
func TestSnapMetaFrameRoundTrip(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	fix := buildSnapFixture(t, 40, 77)
	ss := &syncsvc.SnapMeta{
		Has: true, Signed: state.SignCommit(fix.commit, signers[2]), NumChunks: uint64(len(fix.chunks)),
		Horizon: map[types.ServerID]uint64{0: 5, 2: 9},
		Base:    []dag.Base{{Builder: 0, Seq: 4, Ref: block.Ref{1, 2, 3}}},
	}

	m, err := syncsvc.DecodeSnapMetaFrame(syncsvc.EncodeSnapMetaFrame(ss))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Has || m.NumChunks != uint64(len(fix.chunks)) {
		t.Fatalf("meta = %+v", m)
	}
	if m.Signed.Commit != fix.commit {
		t.Fatalf("commit = %+v, want %+v", m.Signed.Commit, fix.commit)
	}
	if err := m.Signed.Verify(roster); err != nil {
		t.Fatalf("signature did not survive the round trip: %v", err)
	}
	if len(m.Horizon) != 2 || m.Horizon[0] != 5 || m.Horizon[2] != 9 {
		t.Fatalf("horizon = %v", m.Horizon)
	}
	if len(m.Base) != 1 || m.Base[0] != ss.Base[0] {
		t.Fatalf("base = %v", m.Base)
	}

	empty, err := syncsvc.DecodeSnapMetaFrame(syncsvc.EncodeSnapMetaFrame(&syncsvc.SnapMeta{}))
	if err != nil {
		t.Fatal(err)
	}
	if empty.Has {
		t.Fatal("nil snapshot decoded as present")
	}
}

// TestSnapshotStreamOverSimnet: the happy path of the snapshot tier as
// two calls — meta query, then a chunk stream feeding a builder whose
// Finish reproduces the certified root byte for byte.
func TestSnapshotStreamOverSimnet(t *testing.T) {
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	fix := buildSnapFixture(t, 120, 50)

	net := simnet.New(simnet.WithSeed(4))
	net.RegisterHandler(0, transport.ChanSync, snapServer(t, signers[0], fix.head(fix.chunks)))

	q := syncsvc.NewSnapMetaQuery()
	net.Transport(1).Call(0, transport.ChanSync, syncsvc.EncodeSnapMetaRequest(), q)
	if !runUntil(net, q.Done) {
		t.Fatal("meta query did not finish")
	}
	meta, err := q.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Has || meta.NumChunks != uint64(len(fix.chunks)) {
		t.Fatalf("meta = %+v", meta)
	}

	builder := state.NewBuilder(meta.Signed.Commit.Root)
	pull := syncsvc.NewSnapChunkPull(builder)
	net.Transport(1).Call(0, transport.ChanSync, pull.Request(meta.Signed.Commit.Root), pull)
	if !runUntil(net, pull.Done) {
		t.Fatal("chunk stream did not finish")
	}
	accepted, err := pull.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(accepted) != len(fix.chunks) {
		t.Fatalf("accepted %d chunks, want %d", len(accepted), len(fix.chunks))
	}
	tree, err := builder.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root() != fix.commit.Root {
		t.Fatal("rebuilt tree root differs from the certified root")
	}
	if tree.Root() != fix.tree.Root() {
		t.Fatal("rebuilt tree content differs from the source")
	}
}

// TestSnapshotStreamRejectsReorderedChunk: a peer serving chunks out of
// order is caught at the first wrong chunk — explicitly, with the
// builder untouched by the bad chunk — and the stream resumes against
// an honest peer from exactly the rejection point.
func TestSnapshotStreamRejectsReorderedChunk(t *testing.T) {
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	fix := buildSnapFixture(t, 120, 50)
	if len(fix.chunks) < 3 {
		t.Fatalf("fixture too small: %d chunks", len(fix.chunks))
	}
	reordered := slices.Clone(fix.chunks)
	reordered[1], reordered[2] = reordered[2], reordered[1]

	net := simnet.New(simnet.WithSeed(7))
	net.RegisterHandler(0, transport.ChanSync, snapServer(t, signers[1], fix.head(reordered)))
	net.RegisterHandler(1, transport.ChanSync, snapServer(t, signers[0], fix.head(fix.chunks)))

	builder := state.NewBuilder(fix.commit.Root)
	pull := syncsvc.NewSnapChunkPull(builder)
	net.Transport(2).Call(0, transport.ChanSync, pull.Request(fix.commit.Root), pull)
	runUntil(net, pull.Done)
	if _, perr := pull.Result(); perr == nil {
		t.Fatal("reordered chunk stream accepted")
	} else if !strings.Contains(perr.Error(), "rejected") {
		t.Fatalf("err = %v, want an explicit chunk rejection", perr)
	}
	// Chunk 0 applied, the swap rejected at stream position 1: the
	// builder must sit exactly at the rejection point — nothing partial.
	if builder.NextChunk() != 1 {
		t.Fatalf("builder at chunk %d after rejection, want 1", builder.NextChunk())
	}

	// Resume against the honest peer: the request carries the builder's
	// position, so only the tail is re-streamed, and Finish verifies the
	// whole content against the certified root.
	resume := syncsvc.NewSnapChunkPull(builder)
	net.Transport(2).Call(1, transport.ChanSync, resume.Request(fix.commit.Root), resume)
	if !runUntil(net, resume.Done) {
		t.Fatal("resume stream did not finish")
	}
	tail, rerr := resume.Result()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if len(tail) != len(fix.chunks)-1 {
		t.Fatalf("resume re-streamed %d chunks, want the %d missing ones", len(tail), len(fix.chunks)-1)
	}
	tree, err := builder.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root() != fix.commit.Root {
		t.Fatal("resumed tree root differs from the certified root")
	}
}

// TestSnapshotStreamRejectsTamperedChunk: a bit-flip inside a chunk's
// entry data breaks the exporter's key-hash ordering invariant (or the
// encoding itself) and is refused at Add time — never applied and then
// discovered later.
func TestSnapshotStreamRejectsTamperedChunk(t *testing.T) {
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	fix := buildSnapFixture(t, 120, 50)
	tampered := slices.Clone(fix.chunks)
	// Flip the chunk-index varint of chunk 1 so it claims to be a
	// different position in the stream.
	c := append([]byte(nil), fix.chunks[1]...)
	c[0] ^= 0x07
	tampered[1] = c

	net := simnet.New(simnet.WithSeed(7))
	net.RegisterHandler(0, transport.ChanSync, snapServer(t, signers[0], fix.head(tampered)))
	builder := state.NewBuilder(fix.commit.Root)
	pull := syncsvc.NewSnapChunkPull(builder)
	net.Transport(2).Call(0, transport.ChanSync, pull.Request(fix.commit.Root), pull)
	runUntil(net, pull.Done)
	if _, perr := pull.Result(); perr == nil {
		t.Fatal("tampered chunk stream accepted")
	}
	if builder.NextChunk() != 1 {
		t.Fatalf("builder at chunk %d, want 1 (tamper never applied)", builder.NextChunk())
	}
}

// truncatingSnapHandler streams a prefix of the chunks and closes
// without the done frame — a peer dying (or lying) mid-stream.
type truncatingSnapHandler struct {
	chunks [][]byte
	keep   int
}

func (h truncatingSnapHandler) ServeCall(_ types.ServerID, _ []byte, st transport.ServerStream) {
	for _, c := range h.chunks[:h.keep] {
		if err := st.Send(syncsvc.EncodeSnapChunkFrame(c)); err != nil {
			return
		}
	}
	st.Close(nil)
}

// TestSnapshotStreamTruncatedFlagged: a clean close without the done
// frame is an error, but the verified prefix stays in the builder so
// the next attempt resumes instead of restarting.
func TestSnapshotStreamTruncatedFlagged(t *testing.T) {
	fix := buildSnapFixture(t, 120, 50)
	if len(fix.chunks) < 3 {
		t.Fatalf("fixture too small: %d chunks", len(fix.chunks))
	}
	net := simnet.New(simnet.WithSeed(3))
	net.RegisterHandler(0, transport.ChanSync, truncatingSnapHandler{chunks: fix.chunks, keep: 2})

	builder := state.NewBuilder(fix.commit.Root)
	pull := syncsvc.NewSnapChunkPull(builder)
	net.Transport(1).Call(0, transport.ChanSync, pull.Request(fix.commit.Root), pull)
	runUntil(net, pull.Done)
	if _, perr := pull.Result(); perr == nil {
		t.Fatal("truncated chunk stream not flagged")
	}
	if builder.NextChunk() != 2 {
		t.Fatalf("builder at chunk %d, want the 2 verified prefix chunks kept", builder.NextChunk())
	}
}

// TestServeSnapChunksWrongRoot: a chunk request for a root the server no
// longer holds fails loudly instead of serving mismatched chunks.
func TestServeSnapChunksWrongRoot(t *testing.T) {
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	fix := buildSnapFixture(t, 40, 50)

	net := simnet.New(simnet.WithSeed(3))
	net.RegisterHandler(0, transport.ChanSync, snapServer(t, signers[0], fix.head(fix.chunks)))
	var stale [32]byte
	stale[0] = 0xFF
	builder := state.NewBuilder(stale)
	pull := syncsvc.NewSnapChunkPull(builder)
	net.Transport(1).Call(0, transport.ChanSync, pull.Request(stale), pull)
	runUntil(net, pull.Done)
	_, perr := pull.Result()
	if perr == nil {
		t.Fatal("stale-root chunk request served")
	}
	if !strings.Contains(perr.Error(), "re-query") {
		t.Fatalf("err = %v, want the re-query hint", perr)
	}
}

// TestHeldStartsAtTheBase: a DAG seeded at a prune horizon states a horizon
// that starts there — the prefix below it is claimed as held (covered by the
// certified snapshot) — and live blocks above it extend the claim
// contiguously.
func TestHeldStartsAtTheBase(t *testing.T) {
	roster, blocks := buildChain(t, 10)
	d := dag.New(roster)
	if err := d.SeedBase([]dag.Base{{Builder: 0, Seq: 4, Ref: blocks[4].Ref()}}); err != nil {
		t.Fatal(err)
	}
	if wms := syncsvc.Vector(d); len(wms) != 1 || wms[0] != (syncsvc.Watermark{Builder: 0, NextSeq: 5}) {
		t.Fatalf("watermarks = %+v", wms)
	}
	for _, b := range blocks[5:] {
		if err := d.InsertVerified(b); err != nil {
			t.Fatal(err)
		}
	}
	if wms := syncsvc.Vector(d); len(wms) != 1 || wms[0] != (syncsvc.Watermark{Builder: 0, NextSeq: 10}) {
		t.Fatalf("watermarks = %+v", wms)
	}
}

// TestPullAboveBase: a pruned joiner's delta pull advertises its base
// horizon and receives only the blocks above it, which its base-seeded
// DAG — the one that will hold them — accepts.
func TestPullAboveBase(t *testing.T) {
	roster, blocks := buildChain(t, 10)
	st := restoredPeer(t, roster, blocks)

	net := simnet.New(simnet.WithSeed(4))
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{Store: st})

	d := dag.New(roster)
	if err := d.SeedBase([]dag.Base{{Builder: 0, Seq: 4, Ref: blocks[4].Ref()}}); err != nil {
		t.Fatal(err)
	}
	got, perr := runPull(t, net, syncsvc.NewPull(roster, []syncsvc.Watermark{{Builder: 0, NextSeq: 5}}, 0, nil))
	if perr != nil {
		t.Fatal(perr)
	}
	if len(got) != 5 {
		t.Fatalf("delta pull returned %d blocks, want the 5 above the base", len(got))
	}
	for i, b := range got {
		if b.Seq != uint64(5+i) {
			t.Fatalf("block %d has seq %d", i, b.Seq)
		}
		if err := d.InsertVerified(b); err != nil {
			t.Fatalf("insert onto base: %v", err)
		}
	}
}

// snapTCPPeer spins up one TCP listener with srv on the sync channel.
func snapTCPPeer(t *testing.T, self types.ServerID, srv *syncsvc.Server) *tcpnet.Transport {
	t.Helper()
	ep := map[transport.Channel]transport.Endpoint{transport.ChanGossip: nopEndpoint{}}
	tr, err := tcpnet.Listen(tcpnet.Config{
		Self: self, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, self), Endpoints: ep,
		Handlers: map[transport.Channel]transport.Handler{transport.ChanSync: srv},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// TestFetchSnapshotOverTCP: the blocking snapshot-join helper gathers a
// certificate from the peers' own signed commits and survives the
// lowest-ID certified peer serving a consistent lie — chunks that
// verify structurally but hash to a different root — by moving to the
// next certified peer.
func TestFetchSnapshotOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	fix := buildSnapFixture(t, 120, 50)

	// Peer 0 signs the true commit but serves the export of a different
	// tree: every chunk is structurally valid, the content is a lie.
	lie := buildSnapFixture(t, 120, 50)
	lie.tree.Put([]byte("account/evil"), []byte{0xEE})
	honest1 := fix.head(fix.chunks)
	honest1.Horizon = map[types.ServerID]uint64{0: 5}
	honest1.Base = []dag.Base{{Builder: 0, Seq: 4, Ref: block.Ref{9}}}

	t0 := snapTCPPeer(t, 0, snapServer(t, signers[0], fix.head(state.Export(lie.tree, 256))))
	t1 := snapTCPPeer(t, 1, snapServer(t, signers[1], honest1))
	t2 := snapTCPPeer(t, 2, snapServer(t, signers[2], fix.head(fix.chunks)))

	ep := map[transport.Channel]transport.Endpoint{transport.ChanGossip: nopEndpoint{}}
	client, err := tcpnet.Listen(tcpnet.Config{Self: 3, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, 3), Endpoints: ep})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	for id, tr := range map[types.ServerID]*tcpnet.Transport{0: t0, 1: t1, 2: t2} {
		if err := client.Connect(id, tr.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	got, err := syncsvc.FetchSnapshot(syncsvc.FetchConfig{
		Transport: client,
		Roster:    roster,
		Peers:     []types.ServerID{0, 1, 2},
		Timeout:   10 * time.Second,
	})
	if err != nil {
		t.Fatalf("snapshot fetch failed despite two honest certified peers: %v", err)
	}
	if ck := got.Head.State; ck.Slot != fix.commit.Slot || ck.Root != fix.commit.Root {
		t.Fatalf("certified commit = (%d, %x), want %+v", ck.Slot, ck.Root, fix.commit)
	}
	// The verified chunks are re-journalable: they rebuild the source tree
	// (what store.InstallSnapshot and node.New rely on).
	tree, err := state.Import(fix.commit.Root, got.Head.State.Chunks)
	if err != nil {
		t.Fatalf("returned chunks do not rebuild the certified root: %v", err)
	}
	if tree.Root() != fix.tree.Root() {
		t.Fatal("installed tree content differs from the source")
	}
	if len(got.Cert) < roster.F()+1 {
		t.Fatalf("certificate has %d commits, want at least %d", len(got.Cert), roster.F()+1)
	}
	if !state.CertifiedBy(got.Cert, roster) {
		t.Fatal("returned certificate does not certify")
	}
	// Peer 0's consistent lie failed the root check; the anchor must be
	// one of the honest peers, with its base/horizon claims attached.
	if got.Anchor == 0 {
		t.Fatal("anchor is the lying peer")
	}
	if got.Anchor == 1 && (len(got.Head.Base) != 1 || got.Head.Horizon[0] != 5) {
		t.Fatalf("anchor 1's base/horizon not carried: base=%v horizon=%v", got.Head.Base, got.Head.Horizon)
	}
}

// TestFetchSnapshotNoQuorum: one signed commit is not a certificate —
// with f=1 the fetch needs two distinct signers and must refuse to
// install anything on less.
func TestFetchSnapshotNoQuorum(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	fix := buildSnapFixture(t, 40, 50)
	t0 := snapTCPPeer(t, 0, snapServer(t, signers[0], fix.head(fix.chunks)))

	ep := map[transport.Channel]transport.Endpoint{transport.ChanGossip: nopEndpoint{}}
	client, err := tcpnet.Listen(tcpnet.Config{Self: 3, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, 3), Endpoints: ep})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	if err := client.Connect(0, t0.Addr()); err != nil {
		t.Fatal(err)
	}

	_, ferr := syncsvc.FetchSnapshot(syncsvc.FetchConfig{
		Transport: client,
		Roster:    roster,
		Peers:     []types.ServerID{0},
		Timeout:   5 * time.Second,
	})
	if ferr == nil {
		t.Fatal("single-signer snapshot accepted as certified")
	}
	if !strings.Contains(ferr.Error(), "certified") {
		t.Fatalf("err = %v, want a certification failure", ferr)
	}
}

// FuzzDecodeSnapMetaFrame: the meta decoder must never panic and never
// accept a frame that re-encodes differently — byzantine peers control
// these bytes entirely.
func FuzzDecodeSnapMetaFrame(f *testing.F) {
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		f.Fatal(err)
	}
	fix := buildSnapFixture(f, 30, 9)
	f.Add(syncsvc.EncodeSnapMetaFrame(&syncsvc.SnapMeta{
		Has: true, Signed: state.SignCommit(fix.commit, signers[1]), NumChunks: uint64(len(fix.chunks)),
		Horizon: map[types.ServerID]uint64{0: 3},
		Base:    []dag.Base{{Builder: 0, Seq: 2, Ref: block.Ref{4}}},
	}))
	f.Add(syncsvc.EncodeSnapMetaFrame(&syncsvc.SnapMeta{}))
	f.Add([]byte{})
	f.Add([]byte{0x04, 0x01})
	f.Add([]byte{0x04, 0x01, 0x00})
	f.Add(unorderedMeta(state.SignCommit(fix.commit, signers[1])))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := syncsvc.DecodeSnapMetaFrame(data)
		if err != nil {
			return
		}
		if m.NumChunks > 1<<20 {
			t.Fatalf("decoder accepted %d chunks", m.NumChunks)
		}
		if !bytes.Equal(syncsvc.EncodeSnapMetaFrame(m), data) {
			t.Fatalf("an accepted meta of %d bytes re-encodes to other bytes", len(data))
		}
	})
}

// unorderedMeta is a meta frame as EncodeSnapMetaFrame lays one out, but
// with the horizon table (s2: 9, s0: 5, s2: 1): out of builder order, s2
// twice. A lenient decoder reads it as {s0: 5, s2: 1}, which re-encodes to
// other bytes.
func unorderedMeta(signed state.SignedCommit) []byte {
	w := wire.NewWriter(128)
	w.Byte(0x04) // frameSnapMeta
	w.Bool(true)
	w.VarBytes(signed.Encode())
	w.Uvarint(1) // chunks
	w.Uvarint(3)
	for _, e := range [][2]uint64{{2, 9}, {0, 5}, {2, 1}} {
		w.Uint16(uint16(e[0]))
		w.Uvarint(e[1])
	}
	w.Uvarint(0) // base
	return w.Bytes()
}

// TestDecodeSnapMetaFrameTakesOnlyTheEncoding: a horizon table out of
// builder order, or naming a builder twice, is refused — the decoder takes
// only what the encoder writes, as the store's head decoder does.
func TestDecodeSnapMetaFrameTakesOnlyTheEncoding(t *testing.T) {
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	signed := state.SignCommit(buildSnapFixture(t, 10, 3).commit, signers[0])
	if m, err := syncsvc.DecodeSnapMetaFrame(unorderedMeta(signed)); err == nil {
		t.Fatalf("unordered horizon table accepted as %v", m.Horizon)
	}
}

// TestServeSnapshotOnlyWhileARuntimeIsRegistered: the sync server serves
// its store's head, and only while a runtime is registered there. A store
// holding a head but no runtime — a node not started, or stopped — answers
// "no snapshot" and refuses chunk calls; with a runtime registered the meta
// is that head, its commit signed by the server's Signer, and the chunk
// stream rebuilds it.
func TestServeSnapshotOnlyWhileARuntimeIsRegistered(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	fix := buildSnapFixture(t, 60, 12)
	head := fix.head(fix.chunks)
	head.Horizon = map[types.ServerID]uint64{1: 7}
	head.Base = []dag.Base{{Builder: 1, Seq: 6, Ref: block.Ref{6}}}
	srv := snapServer(t, signers[2], head)
	net := simnet.New(simnet.WithSeed(5))
	net.RegisterHandler(0, transport.ChanSync, srv)
	meta := func() *syncsvc.SnapMeta {
		q := syncsvc.NewSnapMetaQuery()
		net.Transport(1).Call(0, transport.ChanSync, syncsvc.EncodeSnapMetaRequest(), q)
		if !runUntil(net, q.Done) {
			t.Fatal("meta query did not finish")
		}
		m, err := q.Result()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	chunks := func() error {
		pull := syncsvc.NewSnapChunkPull(state.NewBuilder(fix.commit.Root))
		net.Transport(1).Call(0, transport.ChanSync, pull.Request(fix.commit.Root), pull)
		if !runUntil(net, pull.Done) {
			t.Fatal("chunk stream did not finish")
		}
		_, err := pull.Result()
		return err
	}

	rt := srv.Store.Runtime()
	srv.Store.SetRuntime(nil)
	if m := meta(); m.Has {
		t.Fatalf("no runtime registered, yet served %+v", m)
	}
	if err := chunks(); err == nil || !strings.Contains(err.Error(), "no snapshot") {
		t.Fatalf("chunk call with no runtime registered: err %v, want no snapshot", err)
	}

	srv.Store.SetRuntime(rt)
	m := meta()
	if !m.Has || m.Signed.Commit != fix.commit || m.NumChunks != uint64(len(fix.chunks)) {
		t.Fatalf("served %+v, want the head's commit %+v over %d chunks", m, fix.commit, len(fix.chunks))
	}
	if err := m.Signed.Verify(roster); err != nil || m.Signed.Server != signers[2].ID() {
		t.Fatalf("commit signed as s%d (%v), want the Signer's s%d", m.Signed.Server, err, signers[2].ID())
	}
	if !maps.Equal(m.Horizon, head.Horizon) || !slices.Equal(m.Base, head.Base) {
		t.Fatalf("served horizon %v base %v, want the head's %v %v", m.Horizon, m.Base, head.Horizon, head.Base)
	}
	if err := chunks(); err != nil {
		t.Fatal(err)
	}
}

// TestServedSnapMetaSignsWithoutBuilding: crypto_signed_total and
// dag_blocks_built_total count two events. Every snapshot meta a node serves
// signs its head's commit afresh, with the key its blocks are signed with,
// and builds no block: three metas served are three signatures. (A
// transport handshake's proof is not counted: roster.TestAuthProvesAndVerifies.)
func TestServedSnapMetaSignsWithoutBuilding(t *testing.T) {
	var sigs crypto.Counters
	_, signers, err := crypto.LocalRosterWithCounters(4, &sigs)
	if err != nil {
		t.Fatal(err)
	}
	fix := buildSnapFixture(t, 8, 3)
	net := simnet.New(simnet.WithSeed(5))
	net.RegisterHandler(0, transport.ChanSync, snapServer(t, signers[0], fix.head(fix.chunks)))
	for range 3 {
		q := syncsvc.NewSnapMetaQuery()
		net.Transport(1).Call(0, transport.ChanSync, syncsvc.EncodeSnapMetaRequest(), q)
		if !runUntil(net, q.Done) {
			t.Fatal("meta query did not finish")
		}
		if m, err := q.Result(); err != nil || !m.Has {
			t.Fatalf("meta %+v, err %v: want the served head", m, err)
		}
	}
	if got := sigs.Get(crypto.Signed); got != 3 {
		t.Fatalf("three metas served signed %d times, want 3", got)
	}
}

// TestFetchSnapshotIgnoresARelayedCommit: a peer that serves another's
// signed commit as its own does not count toward the certificate. s0 signs
// the true commit but serves a consistent lie, s1 relays s0's signature
// over honest chunks, s2 is honest: the certificate is s0's and s2's, its
// signers distinct, and the chunks come from s2 — never from s1, which
// signed nothing.
func TestFetchSnapshotIgnoresARelayedCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	fix := buildSnapFixture(t, 60, 50)
	lie := buildSnapFixture(t, 60, 50)
	lie.tree.Put([]byte("account/evil"), []byte{0xEE})
	peers := map[types.ServerID]*tcpnet.Transport{
		0: snapTCPPeer(t, 0, snapServer(t, signers[0], fix.head(state.Export(lie.tree, 256)))),
		1: snapTCPPeer(t, 1, snapServer(t, signers[0], fix.head(fix.chunks))),
		2: snapTCPPeer(t, 2, snapServer(t, signers[2], fix.head(fix.chunks))),
	}
	ep := map[transport.Channel]transport.Endpoint{transport.ChanGossip: nopEndpoint{}}
	client, err := tcpnet.Listen(tcpnet.Config{Self: 3, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, 3), Endpoints: ep})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()
	for id, tr := range peers {
		if err := client.Connect(id, tr.Addr()); err != nil {
			t.Fatal(err)
		}
	}

	got, err := syncsvc.FetchSnapshot(syncsvc.FetchConfig{
		Transport: client, Roster: roster, Peers: []types.ServerID{0, 1, 2}, Timeout: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var signedBy []types.ServerID
	for _, sc := range got.Cert {
		signedBy = append(signedBy, sc.Server)
	}
	if !slices.Equal(signedBy, []types.ServerID{0, 2}) {
		t.Fatalf("certificate signed by %v, want s0 and s2 once each", signedBy)
	}
	if got.Anchor != 2 {
		t.Fatalf("anchor s%d, want s2: s0 lied and s1 relayed", got.Anchor)
	}
}
