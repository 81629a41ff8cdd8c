package node_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/gossip"
	"blockdag/internal/node"
	"blockdag/internal/peerscore"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/roster"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// sealChain seals n blocks on top of parent (nil starts the chain) on
// signer's own chain, referencing nothing else.
func sealChain(t *testing.T, signer *crypto.Signer, parent *block.Block, n int) []*block.Block {
	t.Helper()
	blocks := make([]*block.Block, 0, n)
	for i := 0; i < n; i++ {
		b := block.New(signer.ID(), 0, nil, nil)
		if parent != nil {
			b = block.New(signer.ID(), parent.Seq+1, []block.Ref{parent.Ref()}, nil)
		}
		if err := b.Seal(signer); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		parent = b
	}
	return blocks
}

// served is a sync handler streaming a fixed block list through the real
// syncsvc.Server, remembering the watermark vector of each delta request
// it was sent.
type served struct {
	mu     sync.Mutex
	srv    syncsvc.Server
	asked  [][]syncsvc.Watermark
	ignore bool // stream everything whatever the requester says it holds
}

func serve(t testing.TB, blocks []*block.Block) *served {
	return &served{srv: syncsvc.Server{Store: onStore(t, fixed(blocks))}}
}

// onStore is a store with src registered as its runtime: the one way a
// sync server reaches the rows it streams.
func onStore(t testing.TB, src syncsvc.Source) *store.Store {
	t.Helper()
	r, _, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{Roster: r, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	st.SetRuntime(src)
	return st
}

// fixed is a block list as a sync server's block source (syncsvc.Source,
// the one a node implements): every block whose seq the horizon does not
// cover, in list order, in one batch.
type fixed []*block.Block

func (f fixed) Stream(next map[types.ServerID]uint64, _ int, send func([]*block.Block) error) error {
	if lacked := slices.DeleteFunc(slices.Clone(f), func(b *block.Block) bool { return b.Seq < next[b.Builder] }); len(lacked) > 0 {
		return send(lacked)
	}
	return nil
}

func (s *served) ServeCall(from types.ServerID, req []byte, st transport.ServerStream) {
	if wms, err := syncsvc.DecodeRequest(req); err == nil {
		s.mu.Lock()
		s.asked = append(s.asked, wms)
		s.mu.Unlock()
		if s.ignore {
			req = syncsvc.EncodeRequest(nil)
		}
	}
	s.srv.ServeCall(from, req, st)
}

// lastAsk returns the vector of the most recent delta request as a map.
func (s *served) lastAsk(t *testing.T) map[types.ServerID]uint64 {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.asked) == 0 {
		t.Fatal("peer was never asked for a delta")
	}
	vec := make(map[types.ServerID]uint64)
	for _, wm := range s.asked[len(s.asked)-1] {
		vec[wm.Builder] = wm.NextSeq
	}
	return vec
}

// truncating streams its blocks in one frame and closes without the done
// frame — a server dying mid-stream, whatever it was asked.
type truncating []*block.Block

func (h truncating) ServeCall(_ types.ServerID, _ []byte, st transport.ServerStream) {
	_ = st.Send(syncsvc.EncodeBatchFrame(h))
	st.Close(nil)
}

// pullNow runs one PullFrom on a stepped node to settlement.
func pullNow(t *testing.T, net *simnet.Network, nd *node.Node, peer types.ServerID) (int, error) {
	t.Helper()
	settled, absorbed := false, 0
	var perr error
	nd.PullFrom(peer, func(_ uint64, n int, err error) { settled, absorbed, perr = true, n, err })
	net.Run()
	if !settled {
		t.Fatal("pull never settled")
	}
	return absorbed, perr
}

// journaled closes st, reopens its directory dir and returns what a restart
// would replay.
func journaled(t *testing.T, st *store.Store, dir string, roster *crypto.Roster) []*block.Block {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reopened.Close() }()
	return reopened.Blocks()
}

// onDisk returns the blocks a store directory holds, read through a
// read-only open while the store's writer may still have it open.
func onDisk(t *testing.T, dir string, roster *crypto.Roster) []*block.Block {
	t.Helper()
	ro, err := store.Open(dir, store.Options{Roster: roster, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ro.Close() }()
	return ro.Blocks()
}

// TestFollowTamperedStreamChargedAndRotatedPast: a sync peer streaming one
// flipped signature is not believed and not forgiven. The honest prefix
// is in the DAG and in the store, the forged block in neither, the error
// names the rejection and the liar is charged a signal; the rotation moves
// on to the next peer, which completes the pull, and the clean poll clears
// the follower's last error.
func TestFollowTamperedStreamChargedAndRotatedPast(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	chain := sealChain(t, signers[0], nil, 50)
	tampered := append([]*block.Block(nil), chain...)
	tampered[30] = dagtest.Forge(chain[30])
	net.RegisterHandler(0, transport.ChanSync, serve(t, tampered))
	net.RegisterHandler(1, transport.ChanSync, serve(t, chain))

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	scores := peerscore.New()
	nd := steppedNode(t, net, roster, signers[2], core.Config{Scores: scores},
		node.Config{Store: st})
	if rep := nd.FollowReport(); rep.State != node.FollowIdle {
		t.Fatalf("configured follower reports state %q before its first poll", rep.State)
	}

	nd.FollowPoll() // rotation starts at peer 0, the liar
	if rep := nd.FollowReport(); rep.State != node.FollowPulling || rep.Peer != 0 {
		t.Fatalf("poll in flight reported as %+v", rep)
	}
	net.Run()
	rep := nd.FollowReport()
	if rep.State != node.FollowIdle || rep.BehindBy != 50 || rep.Deltas != 1 || rep.Blocks != 30 || rep.Errors != 1 {
		t.Fatalf("after the tampered stream: %+v", rep)
	}
	if !errors.Is(rep.LastErr, dag.ErrBadSignature) || !strings.Contains(rep.LastErr.Error(), "rejected") {
		t.Fatalf("last error %v does not name the rejection", rep.LastErr)
	}
	d := nd.Server().DAG()
	if d.Len() != 30 || d.Contains(chain[30].Ref()) {
		t.Fatalf("DAG holds %d blocks (forged slot present: %v), want the 30-block honest prefix",
			d.Len(), d.Contains(chain[30].Ref()))
	}
	if journaled := onDisk(t, dir, roster); st.Len() != 30 || len(journaled) != 30 || journaled[29].Ref() != chain[29].Ref() {
		t.Fatalf("store holds %d blocks, %d on disk, want the 30-block honest prefix", st.Len(), len(journaled))
	}
	if dagtest.Signals(scores, 0) == 0 || dagtest.Signals(scores, 1) != 0 {
		t.Fatalf("signals after the forgery: liar %d, honest %d", dagtest.Signals(scores, 0), dagtest.Signals(scores, 1))
	}

	nd.FollowPoll() // the rotation moves on to peer 1
	net.Run()
	rep = nd.FollowReport()
	if rep.Blocks != 50 || rep.Errors != 1 || rep.LastErr != nil {
		t.Fatalf("after the honest peer: %+v, want 50 blocks and a cleared last error", rep)
	}
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	nd.Stop()
	replay := journaled(t, st, dir, roster)
	if len(replay) != 50 {
		t.Fatalf("journal replays %d blocks, want 50", len(replay))
	}
	for _, b := range replay {
		if !b.VerifySignature(roster) {
			t.Fatalf("journaled block %v fails its signature", b.Ref())
		}
	}
}

// TestPullFromTruncatedStreamResumes: a stream that just stops — link
// death, a dying peer — is an error that costs the peer nothing; the
// blocks that arrived are kept and journaled, a repeat of them is absorbed
// as nothing, and the next peer is asked only for the rest.
func TestPullFromTruncatedStreamResumes(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	chain := sealChain(t, signers[0], nil, 50)
	net.RegisterHandler(0, transport.ChanSync, truncating(chain[:20]))
	full := serve(t, chain)
	net.RegisterHandler(1, transport.ChanSync, full)

	st, err := store.Open(t.TempDir(), store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	scores := peerscore.New()
	nd := steppedNode(t, net, roster, signers[2], core.Config{Scores: scores}, node.Config{Store: st})

	absorbed, perr := pullNow(t, net, nd, 0)
	if perr == nil || absorbed != 20 {
		t.Fatalf("truncated stream: absorbed %d, err %v", absorbed, perr)
	}
	if errors.Is(perr, syncsvc.ErrBadStream) || dagtest.Signals(scores, 0) != 0 {
		t.Fatalf("truncation blamed on the peer: err %v, %d signals", perr, dagtest.Signals(scores, 0))
	}
	if nd.Server().DAG().Len() != 20 || st.Len() != 20 {
		t.Fatalf("prefix not kept: DAG %d, store %d", nd.Server().DAG().Len(), st.Len())
	}
	// The same 20 blocks again: duplicates of held blocks are no-ops.
	if absorbed, _ := pullNow(t, net, nd, 0); absorbed != 0 {
		t.Fatalf("re-sent prefix absorbed as %d new blocks", absorbed)
	}
	absorbed, perr = pullNow(t, net, nd, 1)
	if perr != nil || absorbed != 30 {
		t.Fatalf("resume: absorbed %d, err %v", absorbed, perr)
	}
	if got := full.lastAsk(t)[0]; got != 20 {
		t.Fatalf("second peer was asked from seq %d, want a resume from 20", got)
	}
	// A server that ignores the vector and re-sends everything changes
	// nothing: the live DAG deduplicates.
	full.ignore = true
	if absorbed, perr := pullNow(t, net, nd, 1); perr != nil || absorbed != 0 {
		t.Fatalf("full re-send: absorbed %d, err %v", absorbed, perr)
	}
	if nd.Server().DAG().Len() != 50 || st.Len() != 50 {
		t.Fatalf("after resume: DAG %d, store %d, want 50", nd.Server().DAG().Len(), st.Len())
	}
}

// TestPullFromIllOrderedStream: closure is checked by the live DAG, not
// assumed — a block whose predecessors never appeared stops the absorb,
// nothing at or after it reaches DAG or store, and the peer is charged.
func TestPullFromIllOrderedStream(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	chain := sealChain(t, signers[0], nil, 6)
	for name, tc := range map[string]struct {
		stream []*block.Block
		kept   int
	}{
		"orphan":  {[]*block.Block{chain[5]}, 0},
		"swapped": {[]*block.Block{chain[0], chain[1], chain[3], chain[2], chain[4]}, 2},
	} {
		net := simnet.New()
		net.RegisterHandler(0, transport.ChanSync, serve(t, tc.stream))
		st, err := store.Open(t.TempDir(), store.Options{Roster: roster})
		if err != nil {
			t.Fatal(err)
		}
		scores := peerscore.New()
		nd := steppedNode(t, net, roster, signers[1], core.Config{Scores: scores}, node.Config{Store: st})

		absorbed, perr := pullNow(t, net, nd, 0)
		if absorbed != tc.kept || !errors.Is(perr, syncsvc.ErrBadStream) || !errors.Is(perr, dag.ErrMissingPreds) ||
			!strings.Contains(perr.Error(), "rejected") {
			t.Fatalf("%s: absorbed %d, err %v", name, absorbed, perr)
		}
		if nd.Server().DAG().Len() != tc.kept || st.Len() != tc.kept {
			t.Fatalf("%s: DAG %d, store %d, want %d", name, nd.Server().DAG().Len(), st.Len(), tc.kept)
		}
		if dagtest.Signals(scores, 0) == 0 {
			t.Fatalf("%s: ill-ordered stream cost the peer nothing", name)
		}
		if err := nd.Err(); err != nil {
			t.Fatalf("%s: a peer's bad stream made the node unhealthy: %v", name, err)
		}
		_ = st.Close()
	}
}

// TestOwnBlocksSeenNotHeldSilenceTheNode: a node that lost its disk is
// shown its own old blocks by a stream that cannot connect — the serving
// peer has pruned what lies between — and must not build: the sequence
// numbers are taken. The old blocks then arrive the way the gap fills in
// practice, by gossip, the chain continues from them, and the first block
// built is the next one on top of the old tip.
func TestOwnBlocksSeenNotHeldSilenceTheNode(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	old := sealChain(t, signers[1], nil, 6)
	net := simnet.New()
	net.RegisterHandler(0, transport.ChanSync, serve(t, old[3:])) // 0..2 pruned at the peer
	nd := steppedNode(t, net, roster, signers[1], core.Config{}, node.Config{})
	d := nd.Server().DAG()

	if absorbed, perr := pullNow(t, net, nd, 0); absorbed != 0 || !errors.Is(perr, dag.ErrMissingPreds) {
		t.Fatalf("pull across the peer's horizon: absorbed %d, err %v", absorbed, perr)
	}
	nd.Disseminate()
	if d.Len() != 0 || nd.Err() != nil {
		t.Fatalf("node built %d blocks while peers hold own blocks it lacks (err %v)", d.Len(), nd.Err())
	}
	for i, b := range old {
		nd.DeliverBurst([]gossip.Message{{From: 0, Payload: gossip.EncodeBlockMsg(b)}})
		if i < len(old)-1 {
			nd.Disseminate()
		}
	}
	if d.Len() != len(old) {
		t.Fatalf("node holds %d blocks, want the %d old ones and nothing built in between", d.Len(), len(old))
	}
	nd.Disseminate()
	own := d.ByBuilder(1)
	if next := own[len(own)-1]; len(own) != len(old)+1 || !extends(next, old[5]) || len(dagtest.Forked(d)) != 0 || nd.Err() != nil {
		t.Fatalf("after the old chain came back: %d own blocks, tip seq %d, equivocations %d, err %v",
			len(own), next.Seq, len(dagtest.Forked(d)), nd.Err())
	}
}

// TestPullFromAboveBase: a node standing on a pruned-history base asks
// from its horizon and absorbs the suffix onto the base stand-ins.
func TestPullFromAboveBase(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	chain := sealChain(t, signers[0], nil, 10)
	peer := serve(t, chain)
	net.RegisterHandler(0, transport.ChanSync, peer)

	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signers[1], Protocol: brb.Protocol{},
		Transport: net.Transport(1), Clock: net.Now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SeedBase([]dag.Base{{Builder: 0, Seq: 4, Ref: chain[4].Ref()}}); err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{Server: srv})
	if err != nil {
		t.Fatal(err)
	}
	defer nd.Stop()
	absorbed, perr := pullNow(t, net, nd, 0)
	if perr != nil || absorbed != 5 {
		t.Fatalf("pull above the base: absorbed %d, err %v", absorbed, perr)
	}
	if got := peer.lastAsk(t)[0]; got != 5 {
		t.Fatalf("asked from seq %d, want the horizon 5", got)
	}
	if srv.DAG().Len() != 5 || !srv.DAG().Contains(chain[9].Ref()) {
		t.Fatalf("DAG holds %d blocks above the base", srv.DAG().Len())
	}
}

// TestSnapshotInstalledStoreAnchorsOwnChain: a store that holds a
// snapshot's base and no block yet — a wiped node just after its snapshot join —
// anchors the own chain on the base stand-in, whether or not startup
// catch-up then brings an own block: the first block built is horizon seq
// on top of the stand-in, never a second genesis the peers would hold
// against the node as an equivocation. The node reports the chain it stands
// on: its vector and RecoveryReport.OwnHeld start at the horizon, not at 0.
func TestSnapshotInstalledStoreAnchorsOwnChain(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	pruned := sealChain(t, signers[1], nil, 5)
	dir := t.TempDir()
	base := []dag.Base{{Builder: 1, Seq: 4, Ref: pruned[4].Ref()}}
	ckpt := &store.StateCheckpoint{Slot: 1, Root: [32]byte{1}, Chunks: [][]byte{{0xAA}}}
	st, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	if err := st.InstallSnapshot(&store.Head{Horizon: map[types.ServerID]uint64{1: 5}, Base: base, State: ckpt}); err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signers[1], Protocol: brb.Protocol{},
		Transport: simnet.New().Transport(1), Clock: node.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{Server: srv, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if wms, held := nd.Watermarks(), nd.RecoveryReport().OwnHeld; len(wms) != 1 || wms[0] != (syncsvc.Watermark{Builder: 1, NextSeq: 5}) || held != 5 {
		t.Fatalf("on the installed snapshot: vector %v, own chain held %d, want builder 1 at 5", wms, held)
	}
	nd.Request("ℓ", []byte("v")) // the tick's reason: the node knows its tip
	nd.Disseminate()
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	if held := nd.RecoveryReport().OwnHeld; held != 6 {
		t.Fatalf("own chain held %d after the first block, want 6", held)
	}
	own := srv.DAG().ByBuilder(1)
	if len(own) != 1 || own[0].Seq != 5 || !slices.Contains(own[0].Preds, pruned[4].Ref()) || len(dagtest.Forked(srv.DAG())) != 0 {
		t.Fatalf("first block on an installed snapshot: %d own blocks, first seq %d, want seq 5 on the base stand-in", len(own), own[0].Seq)
	}
}

// tcpAuth is server self's authenticator over the dev keys, which every
// crypto.LocalRoster of these tests holds a prefix of.
func tcpAuth(t *testing.T, self types.ServerID) transport.Authenticator {
	t.Helper()
	fx, err := roster.Dev(4)
	if err != nil {
		t.Fatal(err)
	}
	id, err := fx.Identity(int(self))
	if err != nil {
		t.Fatal(err)
	}
	return id.Auth()
}

// tcpPeer listens on loopback as server self, serving handler on the sync
// channel (nil: none).
func tcpPeer(t *testing.T, self types.ServerID, handler transport.Handler) *tcpnet.Transport {
	t.Helper()
	cfg := tcpnet.Config{
		Self: self, ListenAddr: "127.0.0.1:0", Auth: tcpAuth(t, self),
		Endpoints: map[transport.Channel]transport.Endpoint{transport.ChanGossip: &transport.LateBound{}},
	}
	if handler != nil {
		cfg.Handlers = map[transport.Channel]transport.Handler{transport.ChanSync: handler}
	}
	tr, err := tcpnet.Listen(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	return tr
}

// startupNode starts a node for signer over a fresh store, pulling from the
// given TCP peers (asked in the order given, each poll bounded by timeout),
// and returns once its first poll has settled. period is its block period.
func startupNode(t *testing.T, roster *crypto.Roster, signer *crypto.Signer, onInd func(types.Label, []byte), period, timeout time.Duration, peers ...*tcpnet.Transport) (nd *node.Node, st *store.Store, dir string) {
	t.Helper()
	tr := tcpPeer(t, signer.ID(), nil)
	var ids []types.ServerID
	for _, p := range peers {
		if err := tr.Connect(p.Self(), p.Addr()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, p.Self())
	}
	dir = t.TempDir()
	st, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signer, Protocol: brb.Protocol{},
		Transport: tr, Clock: node.Clock(), OnIndication: onInd,
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err = node.New(node.Config{
		Server: srv, Store: st, DisseminateEvery: period,
		CatchUp: &syncsvc.FetchConfig{Transport: tr, Peers: ids, Timeout: timeout},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nd.Stop)
	if err := nd.Start(); err != nil {
		t.Fatal(err)
	}
	firstPoll(t, nd)
	return nd, st, dir
}

// TestCatchUpOverTCPResumesAfterMidStreamDeath: the first poll survives a
// serving peer dying mid-stream — the blocks that arrived are already in
// the live DAG, so the next peer is asked only for the rest — and, with
// nobody healthy to ask, keeps the genuine prefix and reports the failure.
func TestCatchUpOverTCPResumesAfterMidStreamDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	chain := sealChain(t, signers[0], nil, 200)
	dying := tcpPeer(t, 0, truncating(chain[:120]))
	full := serve(t, chain)
	healthy := tcpPeer(t, 1, full)

	nd, st, dir := startupNode(t, roster, signers[2], nil, time.Hour, 10*time.Second, dying, healthy)
	rep := nd.FollowReport().First
	if rep.Outcome != node.FirstCaughtUp || rep.Err != nil || rep.Blocks != 200 || rep.Peer != 1 {
		t.Fatalf("first poll = %+v, want 200 blocks finished by peer 1", rep)
	}
	if got := full.lastAsk(t)[0]; got != 120 {
		t.Fatalf("healthy peer was asked from seq %d: a restart, not a resume from 120", got)
	}
	nd.Stop()
	if got := nd.Server().DAG().Len(); got != 200 {
		t.Fatalf("DAG holds %d blocks, want 200", got)
	}
	if got := len(journaled(t, st, dir, roster)); got != 200 {
		t.Fatalf("journal replays %d blocks, want 200", got)
	}

	// Only the dying peer to ask: the first poll fails, the prefix stays.
	nd, st, dir = startupNode(t, roster, signers[2], nil, time.Hour, 10*time.Second, dying)
	rep = nd.FollowReport().First
	if rep.Outcome != node.FirstFailed || rep.Err == nil || rep.Blocks != 120 {
		t.Fatalf("first poll = %+v, want a failure that kept 120 blocks", rep)
	}
	if errors.Is(rep.Err, transport.ErrUnreachable) {
		t.Fatalf("unexpected unreachable: %v", rep.Err)
	}
	nd.Stop()
	if got := len(journaled(t, st, dir, roster)); got != 120 {
		t.Fatalf("journal replays %d blocks, want the 120-block prefix", got)
	}
}

// delayed is a sync handler that answers every call after d.
type delayed struct {
	d time.Duration
	h transport.Handler
}

func (s delayed) ServeCall(from types.ServerID, req []byte, st transport.ServerStream) {
	time.Sleep(s.d)
	s.h.ServeCall(from, req, st)
}

// TestCatchUpAfterDiskLossResumesOwnChain: a started node that lost its disk
// builds nothing while its first poll is out — here five block periods,
// the peer slow to answer — re-learns its own blocks 0..k from that peer,
// and the first block it builds is k+1 on top of k — no sequence number a
// peer has seen is reused — referencing every foreign block at most once
// across the whole own chain (Lemma A.6), and the peer blocks it never got
// to reference through their tip alone.
func TestCatchUpAfterDiskLossResumesOwnChain(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	// What the peer holds: the two chains interleaved, each block
	// referencing its parent and the other chain's tip — and a tail of
	// peer blocks the lost node never got to reference.
	seal := func(s *crypto.Signer, seq uint64, preds ...block.Ref) *block.Block {
		b := block.New(s.ID(), seq, preds, nil)
		if err := b.Seal(s); err != nil {
			t.Fatal(err)
		}
		return b
	}
	const k = 7
	var held []*block.Block
	peerTip := seal(signers[0], 0)
	ownTip := seal(signers[1], 0, peerTip.Ref())
	held = append(held, peerTip, ownTip)
	for seq := uint64(1); seq <= k; seq++ {
		peerTip = seal(signers[0], seq, peerTip.Ref(), ownTip.Ref())
		ownTip = seal(signers[1], seq, ownTip.Ref(), peerTip.Ref())
		held = append(held, peerTip, ownTip)
	}
	unreferenced := sealChain(t, signers[0], peerTip, 3)
	held = append(held, unreferenced...)

	const period = 20 * time.Millisecond
	nd, st, dir := startupNode(t, roster, signers[1], nil, period, 10*time.Second, tcpPeer(t, 0, delayed{5 * period, serve(t, held)}))
	if rep := nd.FollowReport().First; rep.Err != nil || rep.Blocks != len(held) {
		t.Fatalf("first poll = %+v, want %d blocks", rep, len(held))
	}
	waitFor(t, 10*time.Second, "an own block after the first poll", func() bool {
		return nd.RecoveryReport().OwnHeld > k+1
	})
	nd.Stop()
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	own := nd.Server().DAG().ByBuilder(1)
	seen := make(map[block.Ref]int)
	var first *block.Block
	for _, b := range own {
		if b.Seq == k+1 {
			first = b
		}
		for _, p := range b.Preds {
			seen[p]++
		}
	}
	if first == nil || len(dagtest.Forked(nd.Server().DAG())) != 0 {
		t.Fatalf("first block after the first poll is not seq %d, or the node forked its own chain", k+1)
	}
	if !extends(first, ownTip) || seen[ownTip.Ref()] != 1 {
		t.Fatal("first block after the first poll does not continue the re-learned chain")
	}
	for ref, n := range seen {
		if n > 1 {
			t.Fatalf("block %v referenced %d times across the own chain", ref, n)
		}
	}
	if tail := unreferenced[len(unreferenced)-1]; len(first.Preds) != 2 || !slices.Contains(first.Preds, tail.Ref()) {
		t.Fatalf("first new block cites %d blocks, want its parent and the tip of the unreferenced peer blocks", len(first.Preds))
	}
	if got, want := len(journaled(t, st, dir, roster)), len(held)+len(own)-(k+1); got != want {
		t.Fatalf("journal replays %d blocks, want the stream plus the %d new ones (%d)", got, len(own)-(k+1), want)
	}
}

// trickling is a slow-but-alive sync peer: it keeps every call open with
// an empty frame every few milliseconds, never ending the stream, until
// the test ends or the caller hangs up.
type trickling chan struct{}

func (s trickling) ServeCall(_ types.ServerID, _ []byte, st transport.ServerStream) {
	for {
		select {
		case <-s:
			return
		case <-time.After(20 * time.Millisecond):
			if st.Send(syncsvc.EncodeBatchFrame(nil)) != nil {
				return
			}
		}
	}
}

// TestFirstPollAbandonsAStalledPeer: the first poll's peer keeps its stream
// alive and never ends it; after CatchUp.Timeout Tick abandons it, counted
// as a failed poll, the next peer serves, and the node builds.
func TestFirstPollAbandonsAStalledPeer(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	stall := make(trickling)
	slow := tcpPeer(t, 0, stall)
	t.Cleanup(func() { close(stall) }) // before the listener closes
	chain := sealChain(t, signers[1], nil, 5)
	nd, _, _ := startupNode(t, roster, signers[2], nil, 20*time.Millisecond, 300*time.Millisecond, slow, tcpPeer(t, 1, serve(t, chain)))
	if first := nd.FollowReport().First; first.Outcome != node.FirstCaughtUp || first.Peer != 1 || first.Blocks != len(chain) {
		t.Fatalf("first poll = %+v, want %d blocks from peer 1", first, len(chain))
	}
	if rep := nd.FollowReport(); rep.Errors < 1 || rep.Polls < 2 {
		t.Fatalf("follow report %+v, want the abandoned poll counted as an error", rep)
	}
	waitFor(t, 10*time.Second, "an own block", func() bool { return nd.RecoveryReport().OwnHeld > 0 })
}

// TestNewMakesNoCall: node.New over a transport whose every call fails the
// test returns a node: the first poll is the started loop's.
func TestNewMakesNoCall(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	tr := noCall{callless(1), t}
	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signers[1], Protocol: brb.Protocol{}, Transport: tr, Clock: node.Clock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{
		Server: srv, Store: emptyStore(t, roster),
		CatchUp: &syncsvc.FetchConfig{Transport: tr, Peers: []types.ServerID{0}, Timeout: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	nd.Stop()
	if first := nd.FollowReport().First; first.Outcome != "" {
		t.Fatalf("first poll of a node never started = %+v", first)
	}
}

// noCall is a callless transport whose every call fails the test.
type noCall struct {
	callless
	t *testing.T
}

func (c noCall) Call(to types.ServerID, ch transport.Channel, req []byte, sink transport.CallSink) func() {
	c.t.Errorf("a call to s%d", to)
	return c.callless.Call(to, ch, req, sink)
}

// traceOf fingerprints what a server ended up with the way chaos digests
// a run: sorted block refs, then one indication sequence per label.
func traceOf(d *dag.DAG, byLabel map[types.Label][][]byte) string {
	h := sha256.New()
	refs := d.Refs()
	sort.Slice(refs, func(a, b int) bool { return bytes.Compare(refs[a][:], refs[b][:]) < 0 })
	for _, ref := range refs {
		h.Write(ref[:])
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, string(l))
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Fprintf(h, "%q", l)
		for _, v := range byLabel[types.Label(l)] {
			fmt.Fprintf(h, " %q", v)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TestCatchUpTierIndependence lifts Lemma 4.2 to whole nodes: a slot that
// receives one and the same block set by gossip alone, by the first poll
// into an empty store, or half by gossip and — after a partition — half by
// the live follower, indicates the same values in the same order per
// label and ends on the same digest, which is also the live cluster's.
func TestCatchUpTierIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	// The block set: a converged 4-server run, slot 3's own blocks
	// included — the slot under test replays its own past.
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	const labels = 6
	for i := 0; i < labels; i++ {
		c.Request(i%4, types.Label(fmt.Sprintf("tier/%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	ok, err := c.RunUntil(40, func() bool {
		if !c.Converged() {
			return false
		}
		delivered := make(map[types.Label]bool)
		for _, ind := range c.Indications(3) {
			delivered[ind.Label] = true
		}
		return len(delivered) == labels
	})
	if err != nil || !ok {
		t.Fatalf("recording run: ok=%v err=%v", ok, err)
	}
	set := c.Servers[0].DAG().Blocks()
	live := make(map[types.Label][][]byte)
	for _, ind := range c.Indications(3) {
		live[ind.Label] = append(live[ind.Label], ind.Value)
	}
	want := traceOf(c.Servers[3].DAG(), live)
	roster, signer := c.Roster, c.Signers[3]

	// Each tier gets a fresh slot 3 and records its indications.
	recorder := func() (map[types.Label][][]byte, func(types.Label, []byte)) {
		byLabel := make(map[types.Label][][]byte)
		return byLabel, func(l types.Label, v []byte) { byLabel[l] = append(byLabel[l], append([]byte(nil), v...)) }
	}
	gossiped := func(nd *node.Node, blocks []*block.Block) {
		for _, b := range blocks {
			nd.DeliverBurst([]gossip.Message{{From: 0, Payload: gossip.EncodeBlockMsg(b)}})
		}
	}
	check := func(tier string, nd *node.Node, byLabel map[types.Label][][]byte) {
		t.Helper()
		if err := nd.Err(); err != nil {
			t.Fatalf("%s: %v", tier, err)
		}
		if got := traceOf(nd.Server().DAG(), byLabel); got != want {
			t.Fatalf("%s: digest %s, live cluster %s (DAG %d/%d blocks, %d/%d labels)",
				tier, got, want, nd.Server().DAG().Len(), len(set), len(byLabel), len(live))
		}
	}

	// Gossip only — newest block first, so every block waits in the
	// pending buffer for its predecessors: the worst order there is.
	byLabel, onInd := recorder()
	nd := steppedNode(t, simnet.New(), roster, signer, core.Config{OnIndication: onInd}, node.Config{})
	reversed := append([]*block.Block(nil), set...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	gossiped(nd, reversed)
	check("gossip", nd, byLabel)

	// The first poll into an empty store, over a real socket.
	byLabel, onInd = recorder()
	nd, _, _ = startupNode(t, roster, signer, onInd, time.Hour, 10*time.Second, tcpPeer(t, 0, serve(t, set)))
	if rep := nd.FollowReport().First; rep.Err != nil || rep.Blocks != len(set) {
		t.Fatalf("first poll: %+v, want %d blocks", rep, len(set))
	}
	nd.Stop()
	check("first poll", nd, byLabel)

	// Half by gossip; then the links are gone and only the follower can
	// tell what the slot is missing.
	byLabel, onInd = recorder()
	net := simnet.New()
	net.RegisterHandler(0, transport.ChanSync, serve(t, set))
	nd = steppedNode(t, net, roster, signer, core.Config{OnIndication: onInd}, node.Config{Store: emptyStore(t, roster)})
	gossiped(nd, set[:len(set)/2])
	nd.FollowPoll()
	net.Run()
	if rep := nd.FollowReport(); rep.Errors != 0 || rep.Blocks != len(set)-len(set)/2 {
		t.Fatalf("live follow: %+v, want the missing %d blocks", rep, len(set)-len(set)/2)
	}
	check("live follow", nd, byLabel)
}
