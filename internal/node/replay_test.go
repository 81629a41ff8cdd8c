package node_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/cluster"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/gossip"
	"blockdag/internal/metrics"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

// replica is a stepped durable node with its indications recorded per
// label.
type replica struct {
	nd      *node.Node
	st      *store.Store
	dir     string // st's directory
	byLabel map[types.Label][][]byte
}

// durableNode opens the store in dir and runs node.New over it: whatever
// the directory journals is replayed, whatever arrives afterwards is
// journaled.
func durableNode(t *testing.T, dir string, roster *crypto.Roster, signer *crypto.Signer) *replica {
	t.Helper()
	st, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	r := &replica{st: st, dir: dir, byLabel: make(map[types.Label][][]byte)}
	r.nd = steppedNode(t, simnet.New(), roster, signer, core.Config{
		OnIndication: func(l types.Label, v []byte) { r.byLabel[l] = append(r.byLabel[l], bytes.Clone(v)) },
		Metrics:      &metrics.Metrics{},
	}, node.Config{Store: st})
	return r
}

// gossiped delivers blocks to the node one gossip message at a time.
func (r *replica) gossiped(blocks []*block.Block) {
	for _, b := range blocks {
		r.nd.DeliverBurst([]gossip.Message{{From: b.Builder, Payload: gossip.EncodeBlockMsg(b)}})
	}
}

// replayOf starts a second node for the same identity over a copy of r's
// journal as it stands: a crash of r now, and the restart.
func (r *replica) replayOf(t *testing.T, roster *crypto.Roster, signer *crypto.Signer) *replica {
	t.Helper()
	if err := r.st.Sync(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(r.dir)); err != nil {
		t.Fatal(err)
	}
	return durableNode(t, dir, roster, signer)
}

// interpreterDigest hashes what the node's interpreter holds: its gauges,
// and what every label's instance was fed and sent at every chain tip.
func (r *replica) interpreterDigest(roster *crypto.Roster) string {
	srv := r.nd.Server()
	h := sha256.New()
	m := srv.Counts()
	for _, g := range []metrics.ID{metrics.InstancesLive, metrics.InstancesRetired, metrics.LabelsRetired, metrics.OutMessagesHeld, metrics.BlocksHolding} {
		fmt.Fprintf(h, "%d ", m.Get(g))
	}
	labels := make([]types.Label, 0, len(r.byLabel))
	for _, b := range srv.DAG().Blocks() {
		for _, rq := range b.Requests {
			labels = append(labels, rq.Label)
		}
	}
	slices.Sort(labels)
	for _, id := range roster.IDs() {
		chain := srv.DAG().ByBuilder(id)
		if len(chain) == 0 {
			continue
		}
		for _, l := range slices.Compact(labels) {
			tip := chain[len(chain)-1].Ref()
			fmt.Fprintf(h, "%v %q %v %v\n", id, l, srv.Interpreter().InMessages(tip, l), srv.Interpreter().OutMessages(tip, l))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// next builds the node's next own block and returns it: it submits a
// request named after the DAG's size, the period turn's reason to build, so
// a replica and the live node it replays seal the same block.
func (r *replica) next(t *testing.T) *block.Block {
	t.Helper()
	before := r.nd.Server().DAG().Len()
	if err := r.nd.Submit(types.Label(fmt.Sprintf("next/%d", before)), []byte("v")); err != nil {
		t.Fatal(err)
	}
	r.nd.Disseminate()
	if err := r.nd.Err(); err != nil {
		t.Fatal(err)
	}
	d := r.nd.Server().DAG()
	if d.Len() != before+1 {
		t.Fatalf("Disseminate built %d blocks, want 1", d.Len()-before)
	}
	return d.Blocks()[before]
}

// requireSameAs holds a replayed node against the live one whose journal
// it replayed: same DAG in the same order, same indications per label,
// same interpreter — and the same next own block (Ed25519 signing is
// deterministic, so equal references mean equal seq, parent, tips and
// requests). Returns that block.
func (r *replica) requireSameAs(t *testing.T, live *replica, roster *crypto.Roster) *block.Block {
	t.Helper()
	if err := r.nd.Err(); err != nil {
		t.Fatal(err)
	}
	if got, want := r.nd.Server().DAG().Refs(), live.nd.Server().DAG().Refs(); !slices.Equal(got, want) {
		t.Fatalf("replayed DAG holds %d blocks, live %d, or in another order", len(got), len(want))
	}
	if rep := r.nd.RecoveryReport(); rep.Store.Blocks != live.nd.Server().DAG().Len() {
		t.Fatalf("recovery report counts %d replayed blocks, the journal holds %d", rep.Store.Blocks, live.nd.Server().DAG().Len())
	}
	if len(r.byLabel) != len(live.byLabel) {
		t.Fatalf("replay indicated on %d labels, live on %d", len(r.byLabel), len(live.byLabel))
	}
	for l, want := range live.byLabel {
		if !slices.EqualFunc(r.byLabel[l], want, bytes.Equal) {
			t.Fatalf("label %q: replay indicated %q, live %q", l, r.byLabel[l], want)
		}
	}
	if got, want := r.interpreterDigest(roster), live.interpreterDigest(roster); got != want {
		t.Fatalf("interpreter digest %s after replay, %s live", got, want)
	}
	got, want := r.next(t), live.next(t)
	if got.Ref() != want.Ref() {
		t.Fatalf("next own block after replay: seq %d preds %v; live: seq %d preds %v", got.Seq, got.Preds, want.Seq, want.Preds)
	}
	return got
}

// recordedRun returns the blocks of a 4-server cluster run — slot 3's own
// among them — in which six broadcasts were delivered everywhere and two
// more are still in flight, so a node holding them has both finished and
// live instances.
func recordedRun(t *testing.T) (*cluster.Cluster, []*block.Block) {
	t.Helper()
	c, err := cluster.New(cluster.Options{N: 4, Protocol: brb.Protocol{}, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c.Request(i%4, types.Label(fmt.Sprintf("done/%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	ok, err := c.RunUntil(40, func() bool {
		for _, s := range c.CorrectServers() {
			if len(c.Indications(s)) < 6 {
				return false
			}
		}
		return true
	})
	if err != nil || !ok {
		t.Fatalf("recording run: ok=%v err=%v", ok, err)
	}
	c.Request(1, "live/0", []byte("w0"))
	c.Request(2, "live/1", []byte("w1"))
	if err := c.RunRounds(2); err != nil {
		t.Fatal(err)
	}
	return c, c.Servers[0].DAG().Blocks()
}

// TestReplayEqualsLive is Lemma 4.2 across a restart: a node fed a block
// set by gossip and a node that replays the first one's journal are the
// same node — DAG, indications per label, interpreter state — and build
// the same next own block. The journal is validated and the chain state
// rebuilt by the code that runs live (core.Server.Restore is an absorb
// loop), so continuing the chain, a server with no own block, tips only,
// a chain anchored on a pruned-history base and an own fork are cases of
// one rule.
func TestReplayEqualsLive(t *testing.T) {
	seal := func(s *crypto.Signer, seq uint64, preds ...block.Ref) *block.Block {
		b := block.New(s.ID(), seq, preds, nil)
		if err := b.Seal(s); err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("recorded run", func(t *testing.T) {
		c, set := recordedRun(t)
		live := durableNode(t, t.TempDir(), c.Roster, c.Signers[3])
		// Newest first: every block waits in the pending buffer for its
		// predecessors, and the journal's order is the DAG's, not the wire's.
		reversed := slices.Clone(set)
		slices.Reverse(reversed)
		live.gossiped(reversed)
		if instances := live.nd.Server().Counts().Get(metrics.InstancesLive); len(live.byLabel) < 6 || instances == 0 {
			t.Fatalf("live node: %d labels indicated, %d live instances; want 6 and some", len(live.byLabel), instances)
		}
		next := live.replayOf(t, c.Roster, c.Signers[3]).requireSameAs(t, live, c.Roster)
		own := c.Servers[0].DAG().ByBuilder(3)
		if !extends(next, own[len(own)-1]) {
			t.Fatalf("next own block has seq %d, the journaled chain ends at %d", next.Seq, own[len(own)-1].Seq)
		}
	})

	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("continues the chain past what it covers", func(t *testing.T) {
		// s0 referenced s1's genesis; s2's genesis arrived and never was.
		g0, g1, g2 := seal(signers[0], 0), seal(signers[1], 0), seal(signers[2], 0)
		own1 := seal(signers[0], 1, g0.Ref(), g1.Ref())
		live := durableNode(t, t.TempDir(), roster, signers[0])
		live.gossiped([]*block.Block{g0, g1, g2, own1})
		next := live.replayOf(t, roster, signers[0]).requireSameAs(t, live, roster)
		if want := []block.Ref{own1.Ref(), g2.Ref()}; next.Seq != 2 || !slices.Equal(next.Preds, want) {
			t.Fatalf("next block: seq %d preds %v, want seq 2 citing the old tip and g2", next.Seq, next.Preds)
		}
	})

	t.Run("no own block", func(t *testing.T) {
		// A peer's chain of three: the first own block is a genesis citing
		// its tip, not the backlog.
		chain := sealChain(t, signers[1], nil, 3)
		live := durableNode(t, t.TempDir(), roster, signers[0])
		live.gossiped(chain)
		next := live.replayOf(t, roster, signers[0]).requireSameAs(t, live, roster)
		if !next.IsGenesis() || !slices.Equal(next.Preds, []block.Ref{chain[2].Ref()}) {
			t.Fatalf("next block: seq %d preds %v, want a genesis citing the chain tip", next.Seq, next.Preds)
		}
	})

	t.Run("own fork", func(t *testing.T) {
		// A previous incarnation signed two blocks at seq 1. Whichever the
		// DAG took first is the parent — live and after every restart.
		g0, g1 := seal(signers[0], 0), seal(signers[1], 0)
		first, second := seal(signers[0], 1, g0.Ref()), seal(signers[0], 1, g0.Ref(), g1.Ref())
		live := durableNode(t, t.TempDir(), roster, signers[0])
		live.gossiped([]*block.Block{g0, g1, first, second})
		next := live.replayOf(t, roster, signers[0]).requireSameAs(t, live, roster)
		if next.Seq != 2 || next.Preds[0] != first.Ref() {
			t.Fatalf("next block: seq %d on %v, want seq 2 on the fork branch seen first", next.Seq, next.Preds[0])
		}
	})

	t.Run("base only, then above it", func(t *testing.T) {
		// A snapshot-installed store: every own block is below the horizon.
		pruned := sealChain(t, signers[0], nil, 5)
		dir := t.TempDir()
		base := []dag.Base{{Builder: 0, Seq: 4, Ref: pruned[4].Ref()}}
		ckpt := &store.StateCheckpoint{Commit: state.Commit{Slot: 1, Root: [32]byte{1}}, Chunks: [][]byte{{0xAA}}}
		st, err := store.Open(dir, store.Options{Roster: roster})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.InstallSnapshot(&store.Head{Horizon: map[types.ServerID]uint64{0: 5}, Base: base, State: ckpt}); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		live := durableNode(t, dir, roster, signers[0])
		next := live.replayOf(t, roster, signers[0]).requireSameAs(t, live, roster)
		if next.Seq != 5 || !slices.Equal(next.Preds, []block.Ref{pruned[4].Ref()}) {
			t.Fatalf("first block on an installed snapshot: seq %d preds %v, want seq 5 on the stand-in", next.Seq, next.Preds)
		}
		// The journal now holds an own block above the base, and a peer's.
		g1 := seal(signers[1], 0)
		live.gossiped([]*block.Block{g1})
		next = live.replayOf(t, roster, signers[0]).requireSameAs(t, live, roster)
		if next.Seq != 6 || len(next.Preds) != 2 || !slices.Contains(next.Preds, g1.Ref()) {
			t.Fatalf("second block above the base: seq %d preds %v, want seq 6 citing its parent and g1", next.Seq, next.Preds)
		}
	})
}

// TestReplayAtEveryCrashPoint cuts a journal at every record boundary and
// inside every record — a power cut after each append, and during it — and
// restarts on what is left. Every time: the store opens, the node comes
// up, its DAG is the journaled prefix, its indications are a prefix of the
// uncut run's per label, and its next own block takes the sequence number
// after the last journaled own block — never one already published.
func TestReplayAtEveryCrashPoint(t *testing.T) {
	c, set := recordedRun(t)
	roster, signer := c.Roster, c.Signers[3]
	whole := durableNode(t, t.TempDir(), roster, signer)
	whole.gossiped(set)
	if err := whole.st.Sync(); err != nil {
		t.Fatal(err)
	}
	wals, err := filepath.Glob(filepath.Join(whole.dir, "*.wal"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("journal is %d WAL segments (err %v), want 1", len(wals), err)
	}
	journal, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	order := whole.nd.Server().DAG().Blocks()

	restartAt := func(cut, blocks int) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(wals[0])), journal[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		r := durableNode(t, dir, roster, signer)
		if err := r.nd.Err(); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if got := r.nd.Server().DAG().Refs(); !slices.Equal(got, whole.nd.Server().DAG().Refs()[:blocks]) {
			t.Fatalf("cut at %d: DAG holds %d blocks, want the first %d journaled", cut, len(got), blocks)
		}
		for l, got := range r.byLabel {
			if want := whole.byLabel[l]; len(got) > len(want) || !slices.EqualFunc(got, want[:len(got)], bytes.Equal) {
				t.Fatalf("cut at %d: label %q indicated %q, the uncut run %q", cut, l, got, want)
			}
		}
		var wantSeq uint64
		for _, b := range order[:blocks] {
			if b.Builder == signer.ID() {
				wantSeq = b.Seq + 1
			}
		}
		if next := r.next(t); next.Seq != wantSeq {
			t.Fatalf("cut at %d: next own block has seq %d, want %d", cut, next.Seq, wantSeq)
		}
	}

	// The segment header is 9 bytes; a record is its payload's length
	// (4 bytes, big endian), its CRC (4) and the payload (store/doc.go).
	off := 9
	for i := range order {
		restartAt(off, i)   // the boundary before record i
		restartAt(off+5, i) // inside its framing
		off += 8 + int(binary.BigEndian.Uint32(journal[off:]))
		restartAt(off-1, i) // one byte short of whole
	}
	if off != len(journal) {
		t.Fatalf("records end at %d, the journal at %d", off, len(journal))
	}
	restartAt(off, len(order))
}

// TestRestartVerifiesEachBlockOnce: opening a store and starting a node
// over it costs one Ed25519 verification per journaled block — the batch
// in core.Server.Restore — and nothing else checks a signature: not
// store.Open, not a second DAG.
func TestRestartVerifiesEachBlockOnce(t *testing.T) {
	c, set := recordedRun(t)
	dir := t.TempDir()
	writer := durableNode(t, dir, c.Roster, c.Signers[3])
	writer.gossiped(set)
	if err := writer.st.Close(); err != nil {
		t.Fatal(err)
	}

	// The same dev keys the cluster's identities use, with counters.
	var sigs crypto.Counters
	roster, signers, err := crypto.LocalRosterWithCounters(4, &sigs)
	if err != nil {
		t.Fatal(err)
	}
	r := durableNode(t, dir, roster, signers[3])
	if got := r.nd.Server().DAG().Len(); got != len(set) {
		t.Fatalf("restart replayed %d blocks, want %d", got, len(set))
	}
	if got := sigs.Get(crypto.Verified); got != int64(len(set)) {
		t.Fatalf("store.Open + node.New verified %d signatures over a %d-block journal, want one each", got, len(set))
	}
}

// TestReplayRejectsBadJournal: a journal is an untrusted peer. A block
// whose builder the roster does not know (the store belongs to another
// deployment) and a block whose record is whole and checksummed but whose
// signature does not verify (the disk lied below the CRC, or the writer
// did) both fail node.New with the error the DAG gives a gossiped block —
// store.Open, which reads and checks no signature, let both through.
func TestReplayRejectsBadJournal(t *testing.T) {
	big, bigSigners, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	small, smallSigners, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	chain := sealChain(t, bigSigners[0], nil, 2)
	for name, tc := range map[string]struct {
		journal []*block.Block
		want    error
	}{
		"foreign roster": {append(chain, sealChain(t, bigSigners[1], nil, 1)...), dag.ErrBuilderUnknown},
		"bad signature":  {[]*block.Block{chain[0], dagtest.Forge(chain[1])}, dag.ErrBadSignature},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{Roster: big})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range tc.journal {
				if err := st.Append(b); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st, err = store.Open(dir, store.Options{Roster: small})
			if err != nil {
				t.Fatalf("store.Open validated a block: %v", err)
			}
			defer func() { _ = st.Close() }()
			srv, err := core.NewServer(core.Config{
				Roster: small, Signer: smallSigners[0], Protocol: brb.Protocol{},
				Transport: simnet.New().Transport(0), Clock: node.Clock(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := node.New(node.Config{Server: srv, Store: st}); !errors.Is(err, tc.want) {
				t.Fatalf("node.New over the journal = %v, want %v", err, tc.want)
			}
			if !srv.DAG().Contains(chain[0].Ref()) {
				t.Fatal("the genuine prefix before the refused block was not absorbed")
			}
		})
	}
}

// extends reports whether b is the block after prev on prev's chain.
func extends(b, prev *block.Block) bool {
	return b.Builder == prev.Builder && b.Seq == prev.Seq+1
}
