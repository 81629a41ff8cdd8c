package state

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// ErrBadProof reports a structurally invalid audit proof: one whose
// encoding is malformed or whose internal claims are inconsistent
// before any root comparison happens. Root mismatches are reported
// separately (Verify returns false) so callers can distinguish "this
// proof is garbage" from "this proof is about a different state".
var ErrBadProof = errors.New("state: bad proof")

// Proof is an audit path for a single key against a tree root. It
// proves either membership (the leaf for KeyHash, with its value hash)
// or non-membership (the path ends at an empty subtree, or at a leaf
// for a *different* key hash sharing the traversed prefix — the
// collapsed-trie shape makes both conclusive).
//
// Branches[i] is the sibling subtree commitment at depth i, root-first;
// the path length is len(Branches). An empty sibling is the 32-byte
// zero hash, kept explicit so the encoding stays canonical.
type Proof struct {
	// KeyHash is sha256 of the proven key.
	KeyHash [32]byte
	// HasLeaf reports whether the path ends at a leaf. When false the
	// path ends at an empty child: conclusive non-membership.
	HasLeaf bool
	// LeafKeyHash and LeafValueHash describe the terminal leaf when
	// HasLeaf. LeafKeyHash == KeyHash means membership; a different
	// hash (sharing the first len(Branches) bits) proves the key
	// absent.
	LeafKeyHash   [32]byte
	LeafValueHash [32]byte
	// Branches are the sibling commitments along the path, depth 0
	// first.
	Branches [][32]byte
}

// Prove builds an audit proof for key against the tree's current root.
func (t *Tree) Prove(key []byte) *Proof {
	t.Root() // force hashes clean so sibling reads are valid
	p := &Proof{KeyHash: sha256.Sum256(key)}
	nd := t.root
	for depth := 0; nd != nil && !nd.leaf; depth++ {
		if bitAt(p.KeyHash, depth) == 0 {
			p.Branches = append(p.Branches, subHash(nd.right))
			nd = nd.left
		} else {
			p.Branches = append(p.Branches, subHash(nd.left))
			nd = nd.right
		}
	}
	if nd != nil {
		p.HasLeaf = true
		p.LeafKeyHash = nd.keyHash
		p.LeafValueHash = nd.valueHash
	}
	return p
}

func subHash(nd *node) [32]byte {
	if nd == nil {
		return zeroHash
	}
	return nd.hash
}

// Verify checks the proof against a root for a key. It returns whether
// the key is present and, if so, the sha256 of its value. An error
// means the proof is internally inconsistent or does not authenticate
// against root — nothing about the key may be concluded.
func (p *Proof) Verify(root [32]byte, key []byte) (present bool, valueHash [32]byte, err error) {
	if sha256.Sum256(key) != p.KeyHash {
		return false, zeroHash, fmt.Errorf("%w: key does not match proof", ErrBadProof)
	}
	if len(p.Branches) > maxDepth {
		return false, zeroHash, fmt.Errorf("%w: path longer than %d", ErrBadProof, maxDepth)
	}
	cur := zeroHash
	if p.HasLeaf {
		if p.LeafKeyHash != p.KeyHash {
			// Non-membership via a colliding-prefix leaf: it must
			// actually live on the traversed path.
			for i := 0; i < len(p.Branches); i++ {
				if bitAt(p.LeafKeyHash, i) != bitAt(p.KeyHash, i) {
					return false, zeroHash, fmt.Errorf("%w: terminal leaf off the key path", ErrBadProof)
				}
			}
		}
		cur = leafHash(p.LeafKeyHash, p.LeafValueHash)
	}
	for depth := len(p.Branches) - 1; depth >= 0; depth-- {
		sib := p.Branches[depth]
		if bitAt(p.KeyHash, depth) == 0 {
			cur = innerHash(cur, sib)
		} else {
			cur = innerHash(sib, cur)
		}
	}
	if cur != root {
		return false, zeroHash, fmt.Errorf("%w: root mismatch", ErrBadProof)
	}
	if p.HasLeaf && p.LeafKeyHash == p.KeyHash {
		return true, p.LeafValueHash, nil
	}
	return false, zeroHash, nil
}

// VerifyValue is Verify specialized to membership of a concrete value.
func (p *Proof) VerifyValue(root [32]byte, key, value []byte) error {
	present, vh, err := p.Verify(root, key)
	if err != nil {
		return err
	}
	if !present {
		return fmt.Errorf("%w: key absent", ErrBadProof)
	}
	if vh != sha256.Sum256(value) {
		return fmt.Errorf("%w: value mismatch", ErrBadProof)
	}
	return nil
}
