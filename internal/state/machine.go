package state

import "fmt"

// Machine is a Merkle-committed KV store and the slot frontier its
// contents stand at. An application writes it through Tree and raises the
// frontier with AdvanceTo, at the convergence points it picks (examples/tcp
// does so per delivered label). It keeps no seal of its own: the runtime
// pins a Commit and records it in its store's head (package node). It is
// driven from the owning node's single indication goroutine and is not
// safe for concurrent use.
type Machine struct {
	tree *Tree
	next uint64 // the slot frontier: Commit's slot
}

// NewMachine returns an empty machine.
func NewMachine() *Machine { return &Machine{tree: NewTree()} }

// Commit pins the current root at the current slot frontier.
func (m *Machine) Commit() Commit { return Commit{Slot: m.next, Root: m.tree.Root()} }

// AdvanceTo raises the frontier to slot; a slot at or below it changes
// nothing.
func (m *Machine) AdvanceTo(slot uint64) { m.next = max(m.next, slot) }

// Install replaces the machine's contents with a verified snapshot
// tree and resumes at the commit's slot. The tree must already have
// been proven against a certified root (Builder.Finish does this);
// Install double-checks, refusing a mismatched pair.
func (m *Machine) Install(tree *Tree, c Commit) error {
	if tree.Root() != c.Root {
		return fmt.Errorf("%w: tree root does not match commit", ErrRootMismatch)
	}
	m.tree = tree
	m.next = c.Slot
	return nil
}

// Tree exposes the underlying store for reads, proofs and mutation
// (Put/Delete/Walk).
func (m *Machine) Tree() *Tree { return m.tree }

// NextSlot returns the slot frontier.
func (m *Machine) NextSlot() uint64 { return m.next }
