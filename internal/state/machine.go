package state

import (
	"errors"
	"fmt"

	"blockdag/internal/wire"
)

// Command opcodes for the canonical KV command codec.
const (
	opSet    byte = 1
	opDelete byte = 2
)

// ErrBadCommand reports a command payload the machine cannot decode.
// Committed garbage is a deterministic failure: every correct replica
// rejects the same command identically, so roots stay aligned.
var ErrBadCommand = errors.New("state: bad command")

// EncodeSet renders a "set key = value" command.
func EncodeSet(key, value []byte) []byte {
	w := wire.NewWriter(2 + len(key) + len(value) + 8)
	w.Byte(opSet)
	w.VarBytes(key)
	w.VarBytes(value)
	return w.Bytes()
}

// EncodeDelete renders a "delete key" command.
func EncodeDelete(key []byte) []byte {
	w := wire.NewWriter(2 + len(key) + 4)
	w.Byte(opDelete)
	w.VarBytes(key)
	return w.Bytes()
}

// DecodeCommand splits a command into its operation and operands.
func DecodeCommand(cmd []byte) (op byte, key, value []byte, err error) {
	r := wire.NewReader(cmd)
	op = r.Byte()
	key = r.VarBytes()
	if op == opSet {
		value = r.VarBytes()
	}
	if cerr := r.Close(); cerr != nil {
		return 0, nil, nil, fmt.Errorf("%w: %v", ErrBadCommand, cerr)
	}
	if op != opSet && op != opDelete {
		return 0, nil, nil, fmt.Errorf("%w: unknown op %d", ErrBadCommand, op)
	}
	return op, key, value, nil
}

// Machine interprets the committed command stream into a Merkle-
// committed KV store. It keeps no seal of its own: the runtime pins a
// Commit and records it in its store's head (package node). It is driven
// from the owning node's single indication goroutine and is not safe for
// concurrent use.
//
// Apply is idempotent over slots: a slot below the applied frontier is
// ignored, which absorbs the at-least-once indication delivery the
// stack guarantees across crashes and snapshot joins.
type Machine struct {
	tree *Tree
	next uint64 // number of contiguously applied slots
}

// NewMachine returns an empty machine.
func NewMachine() *Machine { return &Machine{tree: NewTree()} }

// Apply consumes the committed command for a slot. Slots must arrive
// in order (smr's in-order commit guarantees this); a replayed slot
// below the frontier is a no-op, a gap is an error. It reports whether
// the command mutated state.
func (m *Machine) Apply(slot uint64, cmd []byte) (bool, error) {
	if slot < m.next {
		return false, nil // at-least-once replay; already applied
	}
	if slot > m.next {
		return false, fmt.Errorf("state: apply slot %d out of order (want %d)", slot, m.next)
	}
	op, key, value, err := DecodeCommand(cmd)
	if err != nil {
		// Deterministic rejection: advance the frontier so every
		// replica skips the same slot.
		m.next++
		return false, err
	}
	switch op {
	case opSet:
		m.tree.Put(key, value)
	case opDelete:
		m.tree.Delete(key)
	}
	m.next++
	return true, nil
}

// Commit pins the current root at the current slot frontier.
func (m *Machine) Commit() Commit { return Commit{Slot: m.next, Root: m.tree.Root()} }

// AdvanceTo raises the frontier to slot, for applications that do not run
// over smr slots (label-keyed BRB apps pick their own convergence points);
// a slot at or below it changes nothing.
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

// Tree exposes the underlying store for reads, proofs, and direct
// mutation by non-slot applications (Put/Delete/Walk).
func (m *Machine) Tree() *Tree { return m.tree }

// Root returns the current (unsealed) state root.
func (m *Machine) Root() [32]byte { return m.tree.Root() }

// NextSlot returns the applied-slot frontier: the slot Apply expects
// next.
func (m *Machine) NextSlot() uint64 { return m.next }
