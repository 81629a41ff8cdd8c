package keyset

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// reference is what a Set must answer, kept the obvious way: every key ever
// added by entry, a map to the live entries, and the head.
type reference struct {
	keys []string
	live map[string]int
	head int
}

// space is the fuzz target's key space: 256 keys, so keys repeat and come
// back after eviction; every fifth a run of one byte, long keys and "".
var space = func() (keys [256]string) {
	for arg := range keys {
		keys[arg] = fmt.Sprintf("k%d", arg)
		if arg%5 == 0 {
			keys[arg] = string(bytes.Repeat([]byte{byte(arg)}, arg))
		}
	}
	return keys
}()

// check compares s and its follower column against r: the length, the
// oldest entry, every live key and its value, and a lookup of every key in
// the space, evicted and never added ones included.
func (r *reference) check(t *testing.T, s *Set, col *Column[int]) {
	t.Helper()
	if s.Len() != len(r.live) || s.Oldest() != r.head {
		t.Fatalf("Len %d, Oldest %d; want %d, %d", s.Len(), s.Oldest(), len(r.live), r.head)
	}
	for e := r.head; e < len(r.keys); e++ {
		if !bytes.Equal(s.Key(e), []byte(r.keys[e])) {
			t.Fatalf("Key(%d) = %q, want %q", e, s.Key(e), r.keys[e])
		}
		if *col.At(e) != e {
			t.Fatalf("column at %d holds %d", e, *col.At(e))
		}
	}
	for _, k := range space {
		want, ok := r.live[k]
		if e, found := s.Index(k); found != ok || found && e != want {
			t.Fatalf("Index(%q) = %d, %v; want %d, %v", k, e, found, want, ok)
		}
	}
	// The arena holds the entries from base on — the live ones and a dead
	// prefix shorter than they are — and nothing else.
	if dead := s.head - s.base; dead >= s.Len() && (dead > 0 || s.Len() > 0) {
		t.Fatalf("%d dead entries held beside %d live ones", dead, s.Len())
	}
	held := 0
	for _, k := range r.keys[s.base:] {
		held += len(binary.AppendUvarint(nil, uint64(len(k)))) + len(k)
	}
	if s.Bytes() != held {
		t.Fatalf("arena holds %d B, its entries %d B", s.Bytes(), held)
	}
}

// FuzzSet drives a Set and a follower column with adds (fresh keys,
// repeats and keys evicted before), lookups and oldest-first pops — across compactions and table
// growth — and checks both against a map + slice reference after every
// step.
func FuzzSet(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 1, 2, 2, 0, 3})
	f.Add(bytes.Repeat([]byte{0, 7, 0, 9, 2, 1, 5}, 40))
	f.Add(append(bytes.Repeat([]byte{0, 200}, 100), bytes.Repeat([]byte{2, 0}, 100)...))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s Set
		var col Column[int]
		r := reference{live: make(map[string]int)}
		for len(ops) >= 2 {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			switch op % 3 {
			case 0:
				key := space[arg]
				e, added := s.Add(key)
				want, ok := r.live[key]
				if added == ok || ok && e != want {
					t.Fatalf("Add(%q) = %d, %v; live at %d: %v", key, e, added, want, ok)
				}
				if added {
					if e != len(r.keys) {
						t.Fatalf("Add(%q) numbered %d, want %d", key, e, len(r.keys))
					}
					col.Push(e)
					r.live[key] = e
					r.keys = append(r.keys, key)
				}
			case 1:
				key := space[arg]
				if _, ok := r.live[key]; s.Has(key) != ok {
					t.Fatalf("Has(%q) = %v", key, !ok)
				}
			case 2: // evict up to arg%8 oldest
				for i := 0; i < int(arg%8) && len(r.live) > 0; i++ {
					s.Pop()
					col.Pop()
					delete(r.live, r.keys[r.head])
					r.head++
				}
			}
			r.check(t, &s, &col)
		}
	})
}

// TestLookupAllocs: Has, Index and the Add of a present key allocate
// nothing, for a string key and a [32]byte one alike.
func TestLookupAllocs(t *testing.T) {
	var s Set
	label := "bench/s0/000123"
	var k [32]byte
	k[3] = 7
	s.Add(label)
	s.Add(string(k[:]))
	for i := 0; i < 1000; i++ {
		s.Add(fmt.Sprint(i))
	}
	for name, f := range map[string]func(){
		"Has(label)":   func() { s.Has(label) },
		"Index(label)": func() { s.Index(label) },
		"Add(label)":   func() { s.Add(label) },
		"Has(key)":     func() { s.Has(string(k[:])) },
		"Index(key)":   func() { s.Index(string(k[:])) },
		"Add(key)":     func() { s.Add(string(k[:])) },
		"Has(absent)":  func() { s.Has("absent") },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %v allocs, want 0", name, allocs)
		}
	}
}

// TestWindowHoldsTwiceItsKeys: a set that evicts one key per key added
// keeps at most twice the window's keys in its arena and a table a small
// multiple of the window, however long it runs, and a column beside it
// lets go of each value it pops at once.
func TestWindowHoldsTwiceItsKeys(t *testing.T) {
	const window = 1000
	var s Set
	var col Column[[]byte]
	for i := 0; i < 50*window; i++ {
		var k [32]byte
		k[0], k[1], k[2] = byte(i), byte(i>>8), byte(i>>16)
		if _, added := s.Add(string(k[:])); !added {
			t.Fatalf("key %d already held", i)
		}
		col.Push(k[:])
		if s.Len() > window {
			s.Pop()
			col.Pop()
			if e := col.head - 1; e >= col.base && col.vals[e-col.base] != nil {
				t.Fatalf("popped entry %d still holds its value", e)
			}
		}
		if s.Bytes() > 2*window*33 || len(s.table) > 4096 || len(col.vals) > 2*window {
			t.Fatalf("after %d keys: %d B of arena, %d slots, %d column values", i+1, s.Bytes(), len(s.table), len(col.vals))
		}
	}
}
