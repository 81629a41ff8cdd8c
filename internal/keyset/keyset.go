// Package keyset stores byte keys in insertion order, exactly: a key is
// found if and only if it was added and has not been evicted since. It is
// what a node must remember per label, request or reference — the
// interpreter's retired set, the await index, the mempool's seen cache and
// gossip's invalid-block cache — held as bytes rather than as a map entry
// and a string or array each.
//
// # Layout
//
// Every key is one entry, numbered in insertion order from 0; the number
// never changes, so a caller's parallel columns can follow it (Column). The
// keys live in one arena, each as its uvarint length and then its bytes, and
// a column of arena offsets finds entry e's key. The index from key to entry
// is an open-addressing table of entry numbers, not a map: a lookup hashes
// the key, probes the table and compares against the arena, so each key is
// held once. The hash is keyed by a seed drawn per set, so a client or a
// builder cannot grind keys into one probe run; nothing iterates the table,
// so no answer depends on the seed.
//
// # Eviction
//
// Eviction is oldest-first (Pop) and lazy: the entries below the head are
// dead, and a probe steps over them. Once the dead prefix is at least as
// long as the live rest, the live keys are copied down to the front of the
// arena and the table is rebuilt from it — no tombstones — so a set that
// evicts as fast as it adds holds at most twice its live keys. Growing the
// table rehashes the live keys from the arena too.
//
// A key of a [32]byte k is string(k[:]), which a lookup neither keeps nor
// copies to the heap; lookups and the Add of a present key allocate nothing.
// An arena holds at most 4 GiB, offsets being 32 bits. A Set is not safe
// for concurrent use.
package keyset

import (
	"encoding/binary"
	"hash/maphash"
	"math"
)

// Set is an insertion-ordered set of byte keys. The zero value is an
// empty set, ready to use.
type Set struct {
	arena []byte   // every held entry's key: uvarint length, then the bytes
	offs  []uint32 // by entry - base: where the entry's key starts in arena
	// table is the index: linear probing, a power of two long and at most
	// 3/4 used, each slot an entry - base + 1, 0 empty. used counts the
	// slots taken, dead entries' included until the next rebuild.
	table []uint32
	used  int
	seed  maphash.Seed
	base  int // the entry offs[0] holds
	head  int // the oldest live entry: those below are evicted
}

// Len returns the number of live keys.
func (s *Set) Len() int { return s.base + len(s.offs) - s.head }

// Oldest returns the entry number of the oldest live key, the one Pop
// evicts; with none live, the number the next Add takes.
func (s *Set) Oldest() int { return s.head }

// Key returns entry e's key, a view of the arena valid until the next Add
// or Pop. e must be live.
func (s *Set) Key(e int) []byte {
	if e < s.head || e >= s.base+len(s.offs) {
		panic("keyset: Key of an entry not live")
	}
	return s.key(e - s.base)
}

// key returns the key at offs[i].
func (s *Set) key(i int) []byte {
	o := s.offs[i]
	n, w := binary.Uvarint(s.arena[o:])
	start := int(o) + w
	return s.arena[start : start+int(n)]
}

// Has reports whether key is live in the set.
func (s *Set) Has(key string) bool {
	_, ok := s.Index(key)
	return ok
}

// Index returns key's entry number, if it is live in the set.
func (s *Set) Index(key string) (int, bool) {
	if s.Len() == 0 {
		return 0, false
	}
	e, _ := s.find(key)
	return e, e >= 0
}

// find probes key's run: its entry, or -1 and the first empty slot.
func (s *Set) find(key string) (e, slot int) {
	mask := uint64(len(s.table) - 1)
	for i := maphash.String(s.seed, key) & mask; ; i = (i + 1) & mask {
		v := s.table[i]
		if v == 0 {
			return -1, int(i)
		}
		if n := int(v) - 1; n >= s.head-s.base && string(s.key(n)) == key {
			return s.base + n, 0
		}
	}
}

// Add appends key as the newest entry and returns its number, or returns
// the live entry that holds it already (added false).
func (s *Set) Add(key string) (e int, added bool) {
	if s.table == nil {
		s.seed = maphash.MakeSeed()
		s.rebuild()
	}
	e, slot := s.find(key)
	if e >= 0 {
		return e, false
	}
	if len(s.arena) > math.MaxUint32-binary.MaxVarintLen64-len(key) {
		panic("keyset: arena past 4 GiB")
	}
	if 4*(s.used+1) > 3*len(s.table) {
		s.rebuild()
		_, slot = s.find(key)
	}
	s.table[slot] = uint32(len(s.offs) + 1)
	s.used++
	s.offs = append(s.offs, uint32(len(s.arena)))
	s.arena = binary.AppendUvarint(s.arena, uint64(len(key)))
	s.arena = append(s.arena, key...)
	return s.base + len(s.offs) - 1, true
}

// Pop evicts the oldest live key. Its bytes stay in the arena until the
// dead prefix is as long as the live rest; then the live keys are copied
// down and the table rebuilt.
func (s *Set) Pop() {
	if s.Len() == 0 {
		panic("keyset: Pop of an empty set")
	}
	s.head++
	dead := s.head - s.base
	if dead < len(s.offs)-dead {
		return
	}
	live := s.offs[dead:]
	start := uint32(len(s.arena))
	if len(live) > 0 {
		start = live[0]
	}
	s.arena = s.arena[:copy(s.arena, s.arena[start:])]
	for i, o := range live {
		s.offs[i] = o - start
	}
	s.offs = s.offs[:len(live)]
	s.base = s.head
	s.rebuild()
}

// rebuild makes the table afresh from the live keys in the arena, sized so
// that they fill at most half of it: growing doubles it, and a set that
// evicts as fast as it adds rehashes at most once per half its keys added.
func (s *Set) rebuild() {
	live := s.offs[s.head-s.base:]
	size := 8
	for 2*len(live) > size {
		size *= 2
	}
	if len(s.table) == size {
		clear(s.table)
	} else {
		s.table = make([]uint32, size)
	}
	mask := uint64(size - 1)
	for i := range live {
		i += s.head - s.base
		j := maphash.Bytes(s.seed, s.key(i)) & mask
		for s.table[j] != 0 {
			j = (j + 1) & mask
		}
		s.table[j] = uint32(i + 1)
	}
	s.used = len(live)
}

// Column is a caller's column beside a Set: value e belongs to entry e. The
// caller pushes a value with each key it adds and pops one with each key it
// evicts; a popped value is zeroed at once, so it holds nothing, and the
// dead prefix is dropped by the Set's rule. The zero value is empty.
type Column[T any] struct {
	vals []T // by entry - base
	base int // the entry vals[0] holds
	head int // the oldest live entry
}

// Push appends the value of the next entry.
func (c *Column[T]) Push(v T) { c.vals = append(c.vals, v) }

// At returns entry e's value, for reading or writing in place. e must be
// live.
func (c *Column[T]) At(e int) *T {
	if e < c.head {
		panic("keyset: At of a popped entry")
	}
	return &c.vals[e-c.base]
}

// Pop zeroes and drops the oldest value.
func (c *Column[T]) Pop() {
	var zero T
	c.vals[c.head-c.base] = zero
	c.head++
	dead := c.head - c.base
	if dead < len(c.vals)-dead {
		return
	}
	n := copy(c.vals, c.vals[dead:])
	clear(c.vals[n:])
	c.vals = c.vals[:n]
	c.base = c.head
}
