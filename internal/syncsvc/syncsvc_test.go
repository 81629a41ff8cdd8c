package syncsvc_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// buildChain seals a single-builder chain of length n on signer 0 of a
// fresh 2-server roster.
func buildChain(t testing.TB, n int) (*crypto.Roster, []*block.Block) {
	t.Helper()
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]*block.Block, 0, n)
	var parent *block.Block
	for i := 0; i < n; i++ {
		var preds []block.Ref
		if parent != nil {
			preds = []block.Ref{parent.Ref()}
		}
		b := block.New(0, uint64(i), preds, nil)
		if err := b.Seal(signers[0]); err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
		parent = b
	}
	return roster, blocks
}

// storeWith journals blocks into a fresh store under dir.
func storeWith(t testing.TB, dir string, roster *crypto.Roster, blocks []*block.Block) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Roster: roster, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	return st
}

// restoredPeer journals blocks into a store under a fresh directory and
// restores a node runtime over it, registered on the store as a stepped
// node's owner registers it: a syncsvc.Server{Store: st} streams from the
// node's DAG.
func restoredPeer(t testing.TB, roster *crypto.Roster, blocks []*block.Block) *store.Store {
	t.Helper()
	dir := t.TempDir()
	if err := storeWith(t, dir, roster, blocks).Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{Roster: roster, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	_, signers, err := crypto.LocalRoster(roster.N())
	if err != nil {
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
	st.SetRuntime(nd)
	t.Cleanup(func() {
		nd.Stop()
		_ = st.Close()
	})
	return st
}

// fixed is a block list as a sync server's block source (syncsvc.Source,
// the one a node implements): what a test's server, honest or hostile,
// streams — every block whose seq the horizon does not cover, in list
// order, in one batch.
type fixed []*block.Block

func (f fixed) Stream(next map[types.ServerID]uint64, _ int, send func([]*block.Block) error) error {
	if lacked := slices.DeleteFunc(slices.Clone(f), func(b *block.Block) bool { return b.Seq < next[b.Builder] }); len(lacked) > 0 {
		return send(lacked)
	}
	return nil
}

// runPull issues one delta pull from client 1 against whatever handler
// server 0 runs and drives the simulator until the stream settles.
func runPull(t testing.TB, net *simnet.Network, pull *syncsvc.Pull) ([]*block.Block, error) {
	t.Helper()
	net.Transport(1).Call(0, transport.ChanSync, pull.Request(), pull)
	if !runUntil(net, pull.Done) {
		t.Fatal("stream did not finish")
	}
	return pull.Result()
}

// chunked is a source read in chunks of its own size, whatever the server
// asks: small chunks make a stream of several frames.
type chunked struct {
	syncsvc.Source
	bytes int
}

func (c chunked) Stream(next map[types.ServerID]uint64, _ int, send func([]*block.Block) error) error {
	return c.Source.Stream(next, c.bytes, send)
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

// serving returns a simulator on which server 0 streams blocks.
func serving(t testing.TB, seed int64, blocks []*block.Block) *simnet.Network {
	net := simnet.New(simnet.WithSeed(seed))
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{Store: onStore(t, fixed(blocks))})
	return net
}

// TestPullOverSimnet: a fresh client pulls a restored peer's DAG in bulk
// and ends with the full chain, signature-checked, in an order a DAG
// accepts.
func TestPullOverSimnet(t *testing.T) {
	roster, blocks := buildChain(t, 300)
	st := restoredPeer(t, roster, blocks)

	net := simnet.New(simnet.WithSeed(4))
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{Store: onStore(t, chunked{st.Runtime().(syncsvc.Source), 4 << 10})})

	got, err := runPull(t, net, syncsvc.NewPull(roster, nil, 0, nil))
	if err != nil {
		t.Fatalf("pull failed: %v", err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("got %d blocks, want %d", len(got), len(blocks))
	}
	// An honest server streams a topological order: the result inserts
	// into a DAG as it comes (the structural half of validation, which is
	// the absorbing DAG's to do — here a fresh one).
	d := dag.New(roster)
	for _, b := range got {
		if err := d.InsertVerified(b); err != nil {
			t.Fatalf("replay: %v", err)
		}
	}
	// Small chunks force several frames — chunked streaming, not one
	// giant frame.
	if s := net.Stats(); s.CallFrames < 3 {
		t.Fatalf("stream used %d frames; chunking is not happening", s.CallFrames)
	}
}

// TestPullSkipsHeldPrefix: the requester's watermark vector keeps
// already-held blocks off the wire, and the stream resumes exactly past
// them.
func TestPullSkipsHeldPrefix(t *testing.T) {
	roster, blocks := buildChain(t, 100)
	st := restoredPeer(t, roster, blocks)

	net := simnet.New(simnet.WithSeed(4))
	net.RegisterHandler(0, transport.ChanSync, &syncsvc.Server{Store: st})

	got, err := runPull(t, net, syncsvc.NewPull(roster, held(t, roster, blocks[:60]), 0, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 40 {
		t.Fatalf("got %d blocks, want the 40 missing ones", len(got))
	}
	for i, b := range got {
		if b.Seq != uint64(60+i) {
			t.Fatalf("block %d has seq %d", i, b.Seq)
		}
	}
}

// TestPullRejectsTamperedBlock: a malicious server cannot smuggle a
// forged block past the client — the signature check aborts the pull
// with the DAG's own sentinel, and the blocks accepted before the tamper
// point are genuine.
func TestPullRejectsTamperedBlock(t *testing.T) {
	roster, blocks := buildChain(t, 50)
	tampered := append([]*block.Block(nil), blocks...)
	tampered[30] = dagtest.Forge(blocks[30])

	got, perr := runPull(t, serving(t, 9, tampered), syncsvc.NewPull(roster, nil, 0, nil))
	if !errors.Is(perr, dag.ErrBadSignature) || !strings.Contains(perr.Error(), "rejected") {
		t.Fatalf("err = %v, want a signature rejection", perr)
	}
	if len(got) != 30 {
		t.Fatalf("kept %d blocks, want the 30 valid ones before the tamper", len(got))
	}
	for _, b := range got {
		if !b.VerifySignature(roster) {
			t.Fatalf("kept block %v fails signature verification", b.Ref())
		}
	}
}

// TestPullRejectsOutsider: a validly signed block by a builder outside
// the roster is refused like a forged one.
func TestPullRejectsOutsider(t *testing.T) {
	_, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	outsider := block.New(1, 0, nil, nil)
	if err := outsider.Seal(signers[1]); err != nil {
		t.Fatal(err)
	}
	solo, _, err := crypto.LocalRoster(1) // server 1 is no member
	if err != nil {
		t.Fatal(err)
	}
	got, perr := runPull(t, serving(t, 9, []*block.Block{outsider}), syncsvc.NewPull(solo, nil, 0, nil))
	if !errors.Is(perr, dag.ErrBuilderUnknown) || len(got) != 0 {
		t.Fatalf("outsider stream: %d blocks, err %v", len(got), perr)
	}
}

// TestPullStreamLimit: a server that streams past the cap is cut off at
// it — the pull never holds more than maxBlocks — and flagged.
func TestPullStreamLimit(t *testing.T) {
	roster, blocks := buildChain(t, 50)
	got, perr := runPull(t, serving(t, 9, blocks), syncsvc.NewPull(roster, nil, 20, nil))
	if !errors.Is(perr, syncsvc.ErrBadStream) {
		t.Fatalf("err = %v, want ErrBadStream for an over-long stream", perr)
	}
	if len(got) != 20 {
		t.Fatalf("kept %d blocks past a cap of 20", len(got))
	}
}

// TestPullLyingDoneCount: the done summary must match what was
// streamed — a server claiming more than it sent truncated silently.
func TestPullLyingDoneCount(t *testing.T) {
	roster, blocks := buildChain(t, 5)
	pull := syncsvc.NewPull(roster, nil, 0, nil)
	pull.OnFrame(syncsvc.EncodeBatchFrame(blocks[:3]))
	pull.OnFrame(syncsvc.EncodeDoneFrame(5))
	pull.OnDone(nil)
	got, perr := pull.Result()
	if !errors.Is(perr, syncsvc.ErrBadStream) || len(got) != 3 {
		t.Fatalf("lying done frame: %d blocks, err %v", len(got), perr)
	}
}

// TestPullMalformedFrames: undecodable input is ErrBadStream, and the
// blocks decoded before it are kept.
func TestPullMalformedFrames(t *testing.T) {
	roster, blocks := buildChain(t, 4)
	good := syncsvc.EncodeBatchFrame(blocks)
	for name, frame := range map[string][]byte{
		"unknown kind":  {0xEE},
		"truncated":     good[:len(good)-7],
		"trailing junk": append(append([]byte(nil), good...), 1, 2, 3),
	} {
		pull := syncsvc.NewPull(roster, nil, 0, nil)
		pull.OnFrame(frame)
		pull.OnFrame(good) // drained silently after the failure
		pull.OnDone(nil)
		got, perr := pull.Result()
		if !errors.Is(perr, syncsvc.ErrBadStream) {
			t.Fatalf("%s: err = %v, want ErrBadStream", name, perr)
		}
		if len(got) > len(blocks) {
			t.Fatalf("%s: kept %d blocks of a %d-block frame", name, len(got), len(blocks))
		}
	}
}

// TestPullTruncatedStreamFlagged: a server that closes cleanly without
// the protocol's done frame is reported, so a quietly truncating peer
// cannot masquerade as a complete sync — but not as ErrBadStream: a link
// that died looks the same, and nobody is charged for that.
func TestPullTruncatedStreamFlagged(t *testing.T) {
	pull := syncsvc.NewPull(mustRoster(t), nil, 0, nil)
	pull.OnDone(nil) // transport-clean close, no done frame seen
	_, perr := pull.Result()
	if perr == nil {
		t.Fatal("truncated stream not flagged")
	}
	if errors.Is(perr, syncsvc.ErrBadStream) {
		t.Fatalf("truncation blamed on the peer: %v", perr)
	}
}

// TestPullSettlesOnce: the completion runs exactly once, whoever settles
// the stream first — the transport, or a caller abandoning it.
func TestPullSettlesOnce(t *testing.T) {
	calls := 0
	pull := syncsvc.NewPull(mustRoster(t), nil, 0, func() { calls++ })
	pull.OnDone(transport.ErrStreamLost)
	pull.OnDone(nil)
	if _, perr := pull.Result(); calls != 1 || !errors.Is(perr, transport.ErrStreamLost) {
		t.Fatalf("settled %d times, err %v", calls, perr)
	}
}

func mustRoster(t *testing.T) *crypto.Roster {
	t.Helper()
	roster, _, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	return roster
}

type nopEndpoint struct{}

func (nopEndpoint) Deliver(types.ServerID, []byte) {}

// runUntil steps net until cond holds or nothing is left to run, reporting
// whether cond holds.
func runUntil(net *simnet.Network, cond func() bool) bool {
	for !cond() {
		if !net.Step() {
			return cond()
		}
	}
	return true
}
