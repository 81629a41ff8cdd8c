package mempool

import (
	"blockdag/internal/crypto"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// requestKey is the dedup identity of a request: the hash of its
// length-framed (label, data) pair. Length framing keeps the identity
// unambiguous — ("ab", "c") and ("a", "bc") hash differently — and
// hashing keeps the cache's memory independent of request size.
func requestKey(label types.Label, data []byte) [32]byte {
	w := wire.NewWriter(len(label) + len(data) + 8)
	w.String(string(label))
	w.VarBytes(data)
	return crypto.Hash(w.Bytes())
}

// seenCache remembers the most recent `window` request keys, evicting
// the oldest first. It is the same bounded map + FIFO-slice idiom as
// gossip's invalid-block cache: O(1) add and lookup, with the dead
// prefix of the eviction queue compacted once it dominates the backing
// array. Eviction order is deterministic — purely insertion order,
// independent of map iteration — so tests and replays observe identical
// dedup decisions. The map grows with the keys actually seen — the window
// bounds it, it is not preallocated. Not safe for concurrent use; Pool's
// lock guards it.
type seenCache struct {
	window  int
	members map[[32]byte]struct{}
	fifo    [][32]byte // insertion order; live entries start at head
	head    int
}

func newSeenCache(window int) *seenCache {
	return &seenCache{
		window:  window,
		members: make(map[[32]byte]struct{}),
	}
}

func (c *seenCache) contains(k [32]byte) bool {
	_, ok := c.members[k]
	return ok
}

// add records a key, evicting the oldest entry when the window is full.
// Callers check contains first; adding a present key would double-enter
// the eviction queue.
func (c *seenCache) add(k [32]byte) {
	if len(c.members) >= c.window {
		evict := c.fifo[c.head]
		delete(c.members, evict)
		c.head++
		if c.head > len(c.fifo)/2 {
			c.fifo = append(c.fifo[:0:0], c.fifo[c.head:]...)
			c.head = 0
		}
	}
	c.members[k] = struct{}{}
	c.fifo = append(c.fifo, k)
}

// len reports the number of remembered keys.
func (c *seenCache) len() int { return len(c.members) }
