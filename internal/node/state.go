// State-commitment wiring: the runtime side of internal/state. A node
// configured with a State machine periodically seals it into a Merkle
// commitment, signs it, journals it through the store's checkpoint path,
// serves it to joining peers over the sync channel's snapshot tier, and
// prunes journaled history at the interpreter's cut
// (interpret.Interpreter.Cut): pruning is on exactly when State is. On
// startup the same wiring rebuilds the machine from the journaled
// checkpoint — which, for a wiped node, is the roster-certified snapshot
// package deploy fetched from its peers and installed into the empty
// store just before.
package node

import (
	"fmt"
	"time"

	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/types"
)

// SealEvery is the seal cadence, on the server's clock. Each seal exports
// the tree — O(state) — so it trades snapshot freshness for CPU; every
// deployment has run at this value.
const SealEvery = 500 * time.Millisecond

// restoreState rebuilds the machine from the store's journaled state
// checkpoint: import the chunks (every chunk verified, the whole content
// hashed against the journaled root — a corrupted checkpoint fails loudly
// instead of installing garbage) and install the tree.
// The restored commitment is also published on the snapshot tier right
// away: a restarted node serves joiners even if its state never moves
// again. A store without a checkpoint leaves the machine empty: full
// history is present and the indication replay rebuilds state from
// slot 0.
func (n *Node) restoreState(m *state.Machine, st *store.Store) error {
	ckpt := st.StateCheckpoint()
	if ckpt == nil {
		return nil
	}
	tree, err := state.Import(ckpt.Root, ckpt.Chunks)
	if err != nil {
		return fmt.Errorf("node: restore state checkpoint: %w", err)
	}
	commit := state.Commit{Slot: ckpt.Slot, Root: ckpt.Root}
	if err := m.Install(tree, commit); err != nil {
		return fmt.Errorf("node: restore state checkpoint: %w", err)
	}
	n.lastSealedSlot = commit.Slot
	n.serve(state.SignCommit(commit, n.cfg.Server.Signer()), ckpt.Chunks)
	return nil
}

// ServedSnapshot returns the node's current sealed snapshot for the sync
// service's snapshot tier — hand it to syncsvc.Server.Snapshot. Nil
// until the first seal (or checkpoint restore). Safe for concurrent use;
// the returned value is immutable.
func (n *Node) ServedSnapshot() *syncsvc.ServedSnapshot {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.served
}

// serve publishes a new immutable served snapshot: a signed commit and
// its chunks, over the store's current base and horizon.
func (n *Node) serve(signed state.SignedCommit, chunks [][]byte) {
	ss := &syncsvc.ServedSnapshot{Signed: signed, Chunks: chunks, Base: n.cfg.Store.Base(), Horizon: n.cfg.Store.Horizon()}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.served = ss
}

// maybeSealState runs the seal/serve/prune cycle inside Tick: when the
// cadence has elapsed on the server's clock and the machine's applied
// frontier moved since the last seal, pin a commit at the current tree,
// export and sign it, hand it to the store as the next durable
// checkpoint, publish it on the snapshot tier, and cut journaled history
// at the interpreter's cut.
func (n *Node) maybeSealState() {
	m := n.cfg.State
	if m == nil {
		return
	}
	now := n.cfg.Server.Now()
	if now-n.lastSeal < SealEvery {
		return
	}
	n.lastSeal = now
	if m.NextSlot() == 0 || m.NextSlot() == n.lastSealedSlot {
		// Nothing applied since the last seal — but the chains keep
		// growing under an idle state, so keep cutting history, and keep
		// the served base/horizon in step with the cut: a joiner installs
		// exactly what we serve, and its delta pull can only resume from
		// a horizon whose successors we still hold.
		if n.maybePruneState() {
			if cur := n.ServedSnapshot(); cur != nil {
				n.serve(cur.Signed, cur.Chunks)
			}
		}
		return
	}
	// Seal and export back-to-back on the loop goroutine: the tree
	// cannot move between the two, so the chunks match the signed root.
	commit := m.Seal()
	chunks := state.Export(m.Tree(), state.ChunkBytes)
	n.lastSealedSlot = commit.Slot
	n.cfg.Store.SetStateCheckpoint(&store.StateCheckpoint{
		Slot:   commit.Slot,
		Root:   commit.Root,
		Chunks: chunks,
	})
	n.maybePruneState()
	// Publish after the prune so the served base/horizon reflect it.
	n.serve(state.SignCommit(commit, n.cfg.Server.Signer()), chunks)
}

// maybePruneState cuts journaled history at the interpreter's cut
// (interpret.Interpreter.Cut), a quiet point every chain has read past:
// no instance was live across it, every builder holds the blocks below
// it, and the checkpoint sealed on this turn covers every indication
// below it. Reports whether the store's horizon actually advanced. Prune
// failure is recorded, not fatal: the store stays valid at its old
// horizon (PruneTo is crash-atomic) and the next seal retries.
func (n *Node) maybePruneState() bool {
	if n.cfg.Store.StateCheckpoint() == nil {
		// No sealed state journaled yet — a pruned store must always
		// carry the checkpoint that stands in for the cut history, and
		// PruneTo enforces exactly that. The idle-path prune can tick
		// before the first seal; skip until one lands.
		return false
	}
	current := n.cfg.Store.Horizon()
	horizon := make(map[types.ServerID]uint64)
	for id, h := range n.cfg.Server.Interpreter().Cut() {
		if builder := types.ServerID(id); h > current[builder] {
			horizon[builder] = h
		}
	}
	if len(horizon) == 0 {
		return false // nothing new to cut
	}
	err := n.cfg.Store.PruneTo(n.cfg.Server.DAG(), horizon)
	n.recordErr(err)
	return err == nil
}
