// Package state adds the commitment layer the shim itself does not
// provide: the protocol stack delivers indications, but nothing commits to
// the *state* an application builds from them. An application writes what
// it delivers into a key/value store wrapped in a canonical sparse Merkle
// trie (Machine.Tree), so that
//
//   - every replica that wrote the same key/value set holds the
//     byte-identical 32-byte root (TestRootIsContentDeterministic pins
//     this),
//   - a single key's value is provable against that root with a compact
//     audit proof (Prove/Verify), and
//   - a joining node can fetch the whole state as chunks and verify them
//     against a roster-certified root before applying anything
//     (snapshot.go, commit.go) — the untrusting-client discipline the
//     sync tiers already follow for blocks.
//
// The trie is binary over sha256(key) bit paths, with collapsed leaves:
// a leaf sits at the shallowest depth that distinguishes its key hash
// from every other key hash, and an inner node exists exactly for the
// bit prefixes shared by two or more keys. Insert and delete both
// preserve that shape, so the structure — and therefore the root — is a
// pure function of the key/value set, never of operation order.
package state

import (
	"crypto/sha256"
)

// Domain-separation tags for node hashing: a leaf hash can never be
// reinterpreted as an inner hash or vice versa.
const (
	tagLeaf  byte = 0x00
	tagInner byte = 0x01
)

// maxDepth is the bit length of a sha256 key hash; no trie path is
// longer.
const maxDepth = 256

// zeroHash is the commitment of an empty subtree (and of the empty
// tree).
var zeroHash [32]byte

// leafHash commits to one key/value pair.
func leafHash(keyHash, valueHash [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{tagLeaf})
	h.Write(keyHash[:])
	h.Write(valueHash[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// innerHash commits to an ordered pair of subtree roots.
func innerHash(left, right [32]byte) [32]byte {
	h := sha256.New()
	h.Write([]byte{tagInner})
	h.Write(left[:])
	h.Write(right[:])
	var out [32]byte
	h.Sum(out[:0])
	return out
}

// bitAt returns bit i of a key hash, MSB-first within each byte.
func bitAt(h [32]byte, i int) byte {
	return (h[i>>3] >> (7 - uint(i&7))) & 1
}

// node is either a leaf (key != nil) or an inner node (key == nil). An
// inner node at depth d splits its subtree on bit d of the key hash;
// the depth is implicit in the path from the root. hash caches the
// subtree commitment and is invalidated (dirty) along the spine of
// every mutation, so Root() rehashes only what changed.
type node struct {
	// Leaf fields.
	keyHash   [32]byte
	valueHash [32]byte
	key       []byte
	value     []byte
	leaf      bool

	// Inner fields.
	left, right *node

	hash  [32]byte
	dirty bool
}

// Tree is the canonical Merkle-committed key/value store. The zero
// value is not usable; call NewTree. Not safe for concurrent use: the
// owning machine drives it from a single goroutine, matching the rest
// of the stack.
type Tree struct {
	root *node
	n    int
}

// NewTree returns an empty tree (root = 32 zero bytes).
func NewTree() *Tree { return &Tree{} }

// Len returns the number of keys.
func (t *Tree) Len() int { return t.n }

// Root returns the Merkle commitment to the current contents,
// recomputing only subtrees dirtied since the last call. The empty tree
// commits to 32 zero bytes.
func (t *Tree) Root() [32]byte {
	if t.root == nil {
		return zeroHash
	}
	return rehash(t.root)
}

func rehash(nd *node) [32]byte {
	if nd == nil {
		return zeroHash
	}
	if !nd.dirty {
		return nd.hash
	}
	if nd.leaf {
		nd.hash = leafHash(nd.keyHash, nd.valueHash)
	} else {
		nd.hash = innerHash(rehash(nd.left), rehash(nd.right))
	}
	nd.dirty = false
	return nd.hash
}

// Put stores value under key, replacing any previous value. The value
// is copied; callers may reuse their buffer.
func (t *Tree) Put(key, value []byte) {
	kh := sha256.Sum256(key)
	leaf := &node{
		leaf:      true,
		keyHash:   kh,
		valueHash: sha256.Sum256(value),
		key:       append([]byte(nil), key...),
		value:     append([]byte(nil), value...),
		dirty:     true,
	}
	var added bool
	t.root, added = insert(t.root, leaf, 0)
	if added {
		t.n++
	}
}

// insert places leaf into the subtree rooted at nd (at the given
// depth), returning the new subtree root and whether a key was added
// (false for an overwrite).
func insert(nd *node, leaf *node, depth int) (*node, bool) {
	if nd == nil {
		return leaf, true
	}
	if nd.leaf {
		if nd.keyHash == leaf.keyHash {
			return leaf, false // overwrite
		}
		// Split: build the chain of inner nodes from depth down to the
		// first bit where the two key hashes differ.
		return split(nd, leaf, depth), true
	}
	nd.dirty = true
	var added bool
	if bitAt(leaf.keyHash, depth) == 0 {
		nd.left, added = insert(nd.left, leaf, depth+1)
	} else {
		nd.right, added = insert(nd.right, leaf, depth+1)
	}
	return nd, added
}

// split builds the minimal inner chain separating two leaves whose key
// hashes agree on the first depth bits.
func split(a, b *node, depth int) *node {
	abit, bbit := bitAt(a.keyHash, depth), bitAt(b.keyHash, depth)
	nd := &node{dirty: true}
	if abit != bbit {
		if abit == 0 {
			nd.left, nd.right = a, b
		} else {
			nd.left, nd.right = b, a
		}
		return nd
	}
	child := split(a, b, depth+1)
	if abit == 0 {
		nd.left = child
	} else {
		nd.right = child
	}
	return nd
}

// Entry is one key/value pair as exported by Walk and the snapshot
// chunker.
type Entry struct {
	Key   []byte
	Value []byte
}

// Walk visits every entry in key-hash order (the trie's in-order
// traversal), the canonical export order used by snapshots. The
// callback must not mutate the tree.
func (t *Tree) Walk(fn func(e Entry)) {
	walk(t.root, fn)
}

func walk(nd *node, fn func(e Entry)) {
	if nd == nil {
		return
	}
	if nd.leaf {
		fn(Entry{Key: nd.key, Value: nd.value})
		return
	}
	walk(nd.left, fn)
	walk(nd.right, fn)
}
