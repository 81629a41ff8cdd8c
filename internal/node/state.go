// State-commitment wiring: the runtime side of internal/state. A node
// configured with a State machine periodically seals it into a Merkle
// commitment, records it as its store's head's checkpoint
// (store.Store.SetStateCheckpoint), and prunes journaled history at the
// interpreter's cut (interpret.Interpreter.Cut): pruning is on exactly
// when State is. The node publishes nothing itself: the sync server serves
// joiners the store's head, signed with the node's key. On startup the same
// wiring rebuilds the machine from the head's checkpoint — which, for a
// wiped node, is the roster-certified snapshot package deploy fetched from
// its peers and installed into the empty store just before.
package node

import (
	"fmt"
	"time"

	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

// SealEvery is the seal cadence, on the server's clock. Each seal exports
// the tree — O(state) — so it trades snapshot freshness for CPU; every
// deployment has run at this value.
const SealEvery = 500 * time.Millisecond

// restoreState rebuilds the machine from the store's journaled state
// checkpoint: import the chunks (every chunk verified, the whole content
// hashed against the journaled root — a corrupted checkpoint fails loudly
// instead of installing garbage) and install the tree. A store without a
// checkpoint leaves the machine empty: full history is present and the
// indication replay rebuilds state from slot 0.
func (n *Node) restoreState(m *state.Machine, st *store.Store) error {
	ckpt := st.Head().State
	if ckpt == nil {
		return nil
	}
	tree, err := state.Import(ckpt.Root, ckpt.Chunks)
	if err != nil {
		return fmt.Errorf("node: restore state checkpoint: %w", err)
	}
	if err := m.Install(tree, ckpt.Commit); err != nil {
		return fmt.Errorf("node: restore state checkpoint: %w", err)
	}
	n.lastSealedSlot = ckpt.Slot
	return nil
}

// maybeSealState runs the seal/prune cycle inside Tick: when the cadence
// has elapsed on the server's clock and the machine's applied frontier
// moved since the last seal, pin a commit at the current tree, export it,
// hand it to the store as the head's checkpoint, and cut journaled history
// at the interpreter's cut — which also runs, on the same cadence, under a
// state that did not move, since the chains keep growing under it.
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
	if next := m.NextSlot(); next != 0 && next != n.lastSealedSlot {
		// Commit and export back-to-back on the loop goroutine: the tree
		// cannot move between the two, so the chunks match the root.
		commit := m.Commit()
		n.lastSealedSlot = commit.Slot
		n.cfg.Store.SetStateCheckpoint(&store.StateCheckpoint{Commit: commit, Chunks: state.Export(m.Tree(), state.ChunkBytes)})
	}
	n.maybePruneState()
}

// maybePruneState cuts journaled history at the interpreter's cut
// (interpret.Interpreter.Cut), a quiet point every chain has read past:
// no instance was live across it, every builder holds the blocks below
// it, and the checkpoint sealed on this turn covers every indication
// below it. Prune failure is recorded, not fatal: the store stays valid at
// its old horizon (PruneTo is crash-atomic) and the next seal retries.
func (n *Node) maybePruneState() {
	head := n.cfg.Store.Head()
	if head.State == nil {
		// No sealed state yet — a pruned store must always carry the
		// checkpoint that stands in for the cut history, and PruneTo
		// enforces exactly that. Skip until one lands.
		return
	}
	horizon := make(map[types.ServerID]uint64)
	for id, h := range n.cfg.Server.Interpreter().Cut() {
		if builder := types.ServerID(id); h > head.Horizon[builder] {
			horizon[builder] = h
		}
	}
	if len(horizon) == 0 {
		return // nothing new to cut
	}
	n.recordErr(n.cfg.Store.PruneTo(n.cfg.Server.DAG(), horizon))
}
