package state

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"

	"blockdag/internal/wire"
)

// ErrBadChunk reports a snapshot chunk that fails structural
// validation: wrong index, malformed encoding, or keys out of the
// canonical key-hash order. The builder rejects the chunk without
// touching its accumulated state, so a resumed stream can retry it.
var ErrBadChunk = errors.New("state: bad snapshot chunk")

// ErrRootMismatch reports a completed snapshot whose rebuilt tree does
// not commit to the expected root: the serving peer lied (or the
// certified root is for a different state). Nothing is applied.
var ErrRootMismatch = errors.New("state: snapshot root mismatch")

// ChunkBytes is the soft chunk size a node seals its state into, and
// Export's target when the caller passes 0. A chunk is one frame of the sync
// channel's snapshot stream and the point a broken stream resumes from, so
// this bounds what a retry sends again while keeping a state of megabytes
// to tens of frames.
const ChunkBytes = 32 << 10

// maxChunkEntries bounds the per-chunk entry count a decoder will
// allocate for.
const maxChunkEntries = 1 << 20

// Export renders the tree as an ordered list of chunks, each a
// self-describing wire frame: chunk index, entry count, then (key,
// value) pairs in key-hash order. Chunks close once they exceed
// chunkBytes (0 = ChunkBytes), so every chunk except the last
// is at least that large. An empty tree exports a single empty chunk,
// keeping "stream finished" distinct from "nothing sent".
func Export(t *Tree, chunkBytes int) [][]byte {
	if chunkBytes <= 0 {
		chunkBytes = ChunkBytes
	}
	var (
		chunks  [][]byte
		entries []Entry
		size    int
	)
	flush := func() {
		w := wire.NewWriter(16 + size)
		w.Uvarint(uint64(len(chunks)))
		w.Uvarint(uint64(len(entries)))
		for _, e := range entries {
			w.VarBytes(e.Key)
			w.VarBytes(e.Value)
		}
		chunks = append(chunks, w.Bytes())
		entries, size = entries[:0], 0
	}
	t.Walk(func(e Entry) {
		entries = append(entries, e)
		size += len(e.Key) + len(e.Value) + 8
		if size >= chunkBytes {
			flush()
		}
	})
	flush() // final partial chunk; also the lone empty chunk for an empty tree
	return chunks
}

// Import is Export's inverse for chunks held whole — a journaled
// checkpoint, a served snapshot: the tree they encode, checked chunk by
// chunk and against root as a Builder does.
func Import(root [32]byte, chunks [][]byte) (*Tree, error) {
	b := NewBuilder(root)
	for _, chunk := range chunks {
		if err := b.Add(chunk); err != nil {
			return nil, err
		}
	}
	return b.Finish()
}

// Builder reassembles a snapshot from chunks, enforcing the canonical
// order as it goes: chunk indexes must be contiguous from 0 and keys
// strictly increasing by key hash across the whole stream, so a
// reordered, duplicated, or spliced stream fails at Add — explicitly,
// and before the root check. The accumulated tree is private until
// Finish proves it against the expected root; a failed build leaks
// nothing into the application.
type Builder struct {
	root    [32]byte
	tree    *Tree
	next    int
	lastKH  [32]byte
	hasLast bool
	done    bool
}

// NewBuilder starts a snapshot build that must end at root.
func NewBuilder(root [32]byte) *Builder {
	return &Builder{root: root, tree: NewTree()}
}

// NextChunk returns the index of the chunk Add expects next — the
// resume point when a stream dies mid-transfer.
func (b *Builder) NextChunk() int { return b.next }

// Add validates and applies one chunk. A chunk that fails validation
// is rejected whole: the tree is only mutated after the chunk decodes
// cleanly and every key passes the order check.
func (b *Builder) Add(chunk []byte) error {
	if b.done {
		return fmt.Errorf("%w: builder already finished", ErrBadChunk)
	}
	r := wire.NewReader(chunk)
	idx := r.Uvarint()
	n := r.Count(maxChunkEntries)
	if r.Err() == nil && idx != uint64(b.next) {
		return fmt.Errorf("%w: chunk %d out of order (want %d)", ErrBadChunk, idx, b.next)
	}
	entries := make([]Entry, 0, n)
	lastKH, hasLast := b.lastKH, b.hasLast
	for i := 0; i < n; i++ {
		e := Entry{Key: r.VarBytes(), Value: r.VarBytes()}
		if r.Err() != nil {
			break
		}
		kh := sha256.Sum256(e.Key)
		if hasLast && bytes.Compare(kh[:], lastKH[:]) <= 0 {
			return fmt.Errorf("%w: chunk %d: keys out of canonical order", ErrBadChunk, idx)
		}
		lastKH, hasLast = kh, true
		entries = append(entries, e)
	}
	if err := r.Close(); err != nil {
		return fmt.Errorf("%w: chunk %d: %v", ErrBadChunk, b.next, err)
	}
	for _, e := range entries {
		b.tree.Put(e.Key, e.Value)
	}
	b.lastKH, b.hasLast = lastKH, hasLast
	b.next++
	return nil
}

// Finish checks the rebuilt tree against the expected root and returns
// it. On ErrRootMismatch the build is void; the caller must not use
// any partial state (and cannot: the tree is not returned).
func (b *Builder) Finish() (*Tree, error) {
	if b.done {
		return nil, fmt.Errorf("%w: builder already finished", ErrBadChunk)
	}
	b.done = true
	if got := b.tree.Root(); got != b.root {
		return nil, fmt.Errorf("%w: got %x want %x", ErrRootMismatch, got, b.root)
	}
	return b.tree, nil
}
