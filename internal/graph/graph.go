// Package graph implements the directed-acyclic-graph substrate of the
// paper's Section 2 (Directed Acyclic Graphs): vertices, edges, the
// restricted insert operation of Definition 2.1 — which may only add a new
// vertex v together with edges from existing vertices into v — and the
// orderings ⇀, ⇀+, ⇀* and ⩽ used by the block DAG layer.
//
// The restricted insert makes the three properties of Lemma 2.2 hold by
// construction: insert is idempotent, extends the graph (G ⩽ insert(G,v,E)),
// and preserves acyclicity. The block DAG of Definition 3.4 is built on
// this type with K = block.Ref.
//
// # Causal summary index
//
// Vertices inserted through InsertChained carry a (chain, seq) annotation —
// for block DAGs, (builder, sequence number). The graph maintains an
// incremental causal summary for every vertex: a per-chain watermark vector
// holding the highest annotated sequence number found in the vertex's
// ancestry (itself included). The vector is computed once at insert by
// joining the predecessors' vectors (element-wise max) and raising the
// vertex's own chain entry — O(chains) per insert, no traversal.
//
// The summary makes reachability O(1) for well-formed chains. The caller
// must guarantee the chain-connectivity invariant: an annotated vertex
// (c, s) with s > 0 has the vertex (c, s-1) in its ancestry at insert time
// (the block DAG's parent rule, Definition 3.3(ii), guarantees exactly
// this). Then the vertices of chain c form a path, (c, s') is an ancestor
// of (c, s) whenever s' < s, and
//
//	u ⇀+ v  ⇔  u ≠ v ∧ summary(v)[u.chain] ≥ u.seq
//
// A chain stops being well-formed when two distinct vertices claim the same
// (chain, seq) slot — an equivocation — or when connectivity is violated.
// Such chains are flagged, and only queries whose source vertex lies on a
// flagged chain fall back to the backwards BFS; honest chains keep the O(1)
// path. Flagging is monotone and insert-order independent for the answers
// given: a query answered via the summary before a chain was flagged is the
// same answer the BFS gives, because at that moment the chain's vertices in
// the graph still formed a path.
//
// # Row layout
//
// A vertex is numbered once, by its position in insertion order — the
// number At takes and Index returns — and that number is the only key.
// Everything the graph knows about a vertex is one row of columns: the row
// struct holds its key and chain position, and two end offsets into flat
// columns shared by all rows, one of predecessor numbers and one of summary
// entries, where the row's part starts at the previous row's end. No row
// owns a slice or an allocation of its own.
//
// The index from key to number is an open-addressing table of row numbers,
// not a map: a lookup hashes the key, probes the table and compares against
// the key column, so each key is held once, in its row. The hash is keyed by
// a seed drawn per graph, so a builder cannot grind keys into one probe run;
// nothing iterates the table, so no answer depends on the seed.
//
// Edges are kept at their head only: no query walks forwards. Each chain's
// slot column is a short list of numbers. A predecessor always has a
// smaller number than its successor, so the rows are a topological order
// and any prefix of them is a ⩽-smaller graph.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"hash/maphash"
	"slices"
)

// Insert errors.
var (
	// ErrMissingPred reports an edge source that is not yet a vertex.
	// Definition 2.1 only permits edges {(v_i, v) | v_i ∈ V ⊆ G}.
	ErrMissingPred = errors.New("graph: predecessor not in graph")
	// ErrEdgeMismatch reports a re-insert of an existing vertex with a
	// different edge set; Lemma 2.2(1) idempotence only covers E ⊆ EG.
	ErrEdgeMismatch = errors.New("graph: vertex exists with different edges")
)

// smallLen is the list size below which set comparison uses an
// allocation-free linear scan instead of sorted copies. Block predecessor
// lists are almost always below it (≤ roster size in practice).
const smallLen = 16

// vertex is one row: everything the graph holds about the vertex with
// this number, its edges and summary as end offsets into the columns.
type vertex[K comparable] struct {
	key K
	seq uint64
	// The row's predecessors end at predEnd in DAG.preds and its summary at
	// sumEnd in DAG.sums, each starting where the previous row's ends (a
	// column stays below 1<<32 entries). Summary entry c holds 1 + the
	// highest chain-c seq in the vertex's ancestry-or-self, 0 for none, so
	// the zero value of a short vector means "no such ancestor"; empty when
	// all-zero.
	predEnd, sumEnd uint32
	chain           int32 // -1: not annotated
}

// DAG is a directed acyclic graph over comparable vertex keys. The zero
// value is not ready to use; construct with New. A DAG is not safe for
// concurrent mutation.
type DAG[K comparable] struct {
	rows  []vertex[K] // insertion order; a topological order by construction
	preds []int32     // every row's direct predecessors (u with u ⇀ v), insert order
	sums  []uint64    // every row's summary vector

	// table is the index: open addressing with linear probing, a power of
	// two long and at most 3/4 full, each slot a row number + 1, 0 empty.
	table []int32
	seed  maphash.Seed

	chains []column // by chain identifier
	dups   []int32  // vertices inserted into a taken slot: the forks
}

// column is what the graph keeps per chain: its slot column — the first
// vertex inserted at each seq, ordered by seq — and whether the chain
// stopped being well-formed.
type column struct {
	slots  []int32
	forked bool
}

// New returns an empty DAG.
func New[K comparable]() *DAG[K] {
	return &DAG[K]{seed: maphash.MakeSeed()}
}

// Len returns the number of vertices.
func (g *DAG[K]) Len() int { return len(g.rows) }

// Contains reports whether v is a vertex of g.
func (g *DAG[K]) Contains(v K) bool {
	_, ok := g.find(v)
	return ok
}

// Index returns v's number: its position in insertion order, the i with
// At(i) == v.
func (g *DAG[K]) Index(v K) (int, bool) {
	i, ok := g.find(v)
	return int(i), ok
}

// find looks v up in the index: its number, if it is a vertex.
func (g *DAG[K]) find(v K) (int32, bool) {
	if len(g.table) == 0 {
		return 0, false
	}
	mask := uint64(len(g.table) - 1)
	for i := maphash.Comparable(g.seed, v) & mask; ; i = (i + 1) & mask {
		switch n := g.table[i] - 1; {
		case n < 0:
			return 0, false
		case g.rows[n].key == v:
			return n, true
		}
	}
}

// place files the newest row n in the index, growing the table first if
// the row would fill it past 3/4.
func (g *DAG[K]) place(n int32) {
	if 4*len(g.rows) > 3*len(g.table) {
		g.table = make([]int32, max(8, 2*len(g.table)))
		for m := range g.rows {
			g.slotFor(int32(m))
		}
		return
	}
	g.slotFor(n)
}

// slotFor writes row n into the first empty slot of its probe run.
func (g *DAG[K]) slotFor(n int32) {
	mask := uint64(len(g.table) - 1)
	i := maphash.Comparable(g.seed, g.rows[n].key) & mask
	for g.table[i] != 0 {
		i = (i + 1) & mask
	}
	g.table[i] = n + 1
}

// InsertChained adds vertex v with edges from each vertex in preds to v,
// implementing insert(G, v, E) of Definition 2.1. E is a set: preds names
// each vertex at most once, which the caller guarantees (the block DAG's
// blocks do: block.Decode refuses a repeated predecessor).
//
// Inserting an existing vertex with the same edge set is a no-op
// (Lemma 2.2(1)); with a different edge set it returns ErrEdgeMismatch.
// If any predecessor is absent it returns ErrMissingPred and leaves g
// unchanged. Because edges only ever point at the new vertex, g remains
// acyclic (Lemma 2.2(3)).
//
// The vertex is annotated with a chain position: v is element seq of chain
// chain (for block DAGs: builder and sequence number). The annotation feeds
// the causal summary index; see the package doc for the chain-connectivity
// invariant the caller guarantees and the equivocation fallback. Chain
// identifiers must be small, non-negative integers (they index the
// watermark vectors); a negative chain inserts the vertex unannotated.
func (g *DAG[K]) InsertChained(v K, preds []K, chain int, seq uint64) error {
	return g.insert(v, preds, max(chain, -1), seq, nil, false)
}

// InsertSeeded adds v as a root vertex standing in for a pruned prefix
// of a chain: element seq of chain chain whose own ancestry has been
// discarded. It participates in the causal summary as if the prefix
// were present — the chain watermark below it reads seq — but the
// connectivity check is waived for the seeded vertex itself, since its
// parent (chain, seq-1) is exactly what was pruned. below is the summary of
// that discarded ancestry (see Summary; nil: of the vertex's own chain only):
// what was pruned of any chain lies below every seeded root, so the caller
// hands each the same vector. Only sensible on a graph that never saw the
// pruned prefix; the caller (the block DAG) seeds before any regular insert.
func (g *DAG[K]) InsertSeeded(v K, chain int, seq uint64, below []uint64) error {
	if chain < 0 {
		return fmt.Errorf("%w: seeded vertex needs a chain", ErrEdgeMismatch)
	}
	return g.insert(v, nil, chain, seq, below, true)
}

func (g *DAG[K]) insert(v K, predKeys []K, chain int, seq uint64, below []uint64, seeded bool) error {
	// The predecessors are resolved onto the end of their column, where
	// they stay only if v becomes a row.
	from := len(g.preds)
	absent := g.resolve(predKeys)
	preds := g.preds[from:]
	if at, exists := g.find(v); exists {
		same := absent < 0 && sameSet(g.predsOf(at), preds)
		g.preds = g.preds[:from]
		if same {
			return nil
		}
		return fmt.Errorf("%w: %v", ErrEdgeMismatch, v)
	}
	if absent >= 0 {
		g.preds = g.preds[:from]
		return fmt.Errorf("%w: %v", ErrMissingPred, predKeys[absent])
	}
	n := int32(len(g.rows))
	g.rows = append(g.rows, vertex[K]{key: v, seq: seq, chain: int32(chain), predEnd: uint32(len(g.preds))})
	g.summarize(n, below, seeded)
	g.place(n)
	return nil
}

// resolve appends the numbers of an edge set to the predecessor column, in
// order. absent is the position of the first key that is not a vertex, -1
// when all are.
func (g *DAG[K]) resolve(keys []K) (absent int) {
	for i, k := range keys {
		n, ok := g.find(k)
		if !ok {
			return i
		}
		g.preds = append(g.preds, n)
	}
	return -1
}

// summarize computes the causal summary of the newest vertex n from its
// predecessors' (a seeded root's: from below), appends it to the summary
// column, and files n's chain annotation in the slot column, flagging
// chains that stop being well-formed (duplicate slot or broken
// connectivity).
func (g *DAG[K]) summarize(n int32, below []uint64, seeded bool) {
	v := &g.rows[n]
	preds := g.predsOf(n)
	width := max(int(v.chain)+1, len(below))
	for _, p := range preds {
		width = max(width, len(g.summaryOf(p)))
	}
	from := len(g.sums)
	g.sums = slices.Grow(g.sums, width)[:from+width]
	v.sumEnd = uint32(len(g.sums))
	if width == 0 {
		return // no annotations anywhere in the ancestry
	}
	vec := g.sums[from:]
	clear(vec[copy(vec, below):])
	for _, p := range preds {
		for c, w := range g.summaryOf(p) {
			vec[c] = max(vec[c], w)
		}
	}
	if v.chain < 0 {
		return
	}
	if int(v.chain) >= len(g.chains) {
		g.chains = append(g.chains, make([]column, int(v.chain)+1-len(g.chains))...)
	}
	col := &g.chains[v.chain]
	if at, taken := g.slot(int(v.chain), v.seq); taken {
		g.dups = append(g.dups, n)
		col.forked = true
	} else {
		col.slots = slices.Insert(col.slots, at, n)
	}
	// Connectivity check: after the join, the chain watermark of a
	// well-formed chain is exactly seq — the parent (c, seq-1)
	// contributes seq, and no higher chain element can already be
	// an ancestor of the newest one. Genesis (seq 0) must see no
	// prior chain element at all. A seeded vertex is exempt: its
	// parent is pruned history by construction.
	if vec[v.chain] != v.seq && !seeded {
		col.forked = true
	}
	vec[v.chain] = max(vec[v.chain], v.seq+1)
}

// predsOf and summaryOf are row n's parts of the two columns, capped at
// their end so an append cannot write into the next row; nil when empty.
func (g *DAG[K]) predsOf(n int32) []int32 {
	var from uint32
	if n > 0 {
		from = g.rows[n-1].predEnd
	}
	if to := g.rows[n].predEnd; to > from {
		return g.preds[from:to:to]
	}
	return nil
}

func (g *DAG[K]) summaryOf(n int32) []uint64 {
	var from uint32
	if n > 0 {
		from = g.rows[n-1].sumEnd
	}
	if to := g.rows[n].sumEnd; to > from {
		return g.sums[from:to:to]
	}
	return nil
}

// slot finds seq in chain's slot column: its position — where it is, or
// where it would go — and whether a vertex holds it.
func (g *DAG[K]) slot(chain int, seq uint64) (at int, taken bool) {
	if chain < 0 || chain >= len(g.chains) {
		return 0, false
	}
	return slices.BinarySearchFunc(g.chains[chain].slots, seq, func(n int32, seq uint64) int {
		return cmp.Compare(g.rows[n].seq, seq)
	})
}

// Slot returns the number of the first vertex inserted as element seq of
// the chain, if there is one. Later vertices claiming the slot fork the
// chain and are not found here.
func (g *DAG[K]) Slot(chain int, seq uint64) (int, bool) {
	at, taken := g.slot(chain, seq)
	if !taken {
		return 0, false
	}
	return int(g.chains[chain].slots[at]), true
}

// Chain returns the numbers of the vertices annotated with the chain,
// ordered by seq, then by insertion where a slot was claimed twice.
func (g *DAG[K]) Chain(chain int) []int {
	if chain < 0 || chain >= len(g.chains) {
		return nil
	}
	out := make([]int, 0, len(g.chains[chain].slots))
	for _, n := range g.chains[chain].slots {
		out = append(out, int(n))
	}
	sorted := len(out)
	for _, n := range g.dups {
		if int(g.rows[n].chain) == chain {
			out = append(out, int(n))
		}
	}
	if len(out) > sorted {
		// The column is in seq order and precedes the duplicates, which
		// are in insertion order: a stable sort by seq does the rest.
		slices.SortStableFunc(out, func(a, b int) int { return cmp.Compare(g.rows[a].seq, g.rows[b].seq) })
	}
	return out
}

// ChainForked reports whether the chain lost its O(1) reachability fast
// path: a duplicate (chain, seq) slot (equivocation) or a connectivity
// violation was observed. Queries from vertices of a forked chain use the
// backwards BFS.
func (g *DAG[K]) ChainForked(chain int) bool {
	return chain >= 0 && chain < len(g.chains) && g.chains[chain].forked
}

// Summary returns the causal summary of vertex number i, read-only: entry c
// is 1 + the highest chain-c seq in its ancestry-or-self, 0 or none for none.
func (g *DAG[K]) Summary(i int) []uint64 { return g.summaryOf(int32(i)) }

// PredsAt returns the numbers of vertex i's direct predecessors, read-only,
// and Pos its chain annotation (chain -1: none).
func (g *DAG[K]) PredsAt(i int) []int32 { return g.predsOf(int32(i)) }
func (g *DAG[K]) Pos(i int) (chain int, seq uint64) {
	return int(g.rows[i].chain), g.rows[i].seq
}

// Slots returns, read-only, the chain's slot column between two sequence
// numbers: the first vertex inserted at each seq in [from, to), by seq.
func (g *DAG[K]) Slots(chain int, from, to uint64) []int32 {
	lo, _ := g.slot(chain, from)
	hi, _ := g.slot(chain, to)
	if hi <= lo {
		return nil
	}
	return g.chains[chain].slots[lo:hi]
}

// sameSet compares two duplicate-free lists of vertex numbers as sets.
func sameSet(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > smallLen {
		a, b = slices.Sorted(slices.Values(a)), slices.Sorted(slices.Values(b))
		return slices.Equal(a, b)
	}
	for _, n := range a {
		if !slices.Contains(b, n) {
			return false
		}
	}
	return true
}

// Order returns all vertices in insertion order, which is a valid
// topological order (every vertex follows all of its predecessors). The
// result is a copy.
func (g *DAG[K]) Order() []K {
	if len(g.rows) == 0 {
		return nil
	}
	out := make([]K, len(g.rows))
	for i := range g.rows {
		out[i] = g.rows[i].key
	}
	return out
}

// At returns the i-th inserted vertex (no-copy indexed access; pair with
// Len to iterate without materializing Order).
func (g *DAG[K]) At(i int) K { return g.rows[i].key }

// Reaches reports whether v is reachable from u in one or more steps,
// written u ⇀+ v in the paper.
//
// When u was inserted with a chain annotation (InsertChained) and its
// chain is well-formed, the answer is a single watermark compare — O(1),
// allocation-free. Vertices of flagged (equivocating) chains and
// unannotated vertices fall back to a backwards BFS from v.
func (g *DAG[K]) Reaches(u, v K) bool {
	from, okU := g.find(u)
	to, okV := g.find(v)
	if !okU || !okV || from == to {
		return false
	}
	if src := &g.rows[from]; src.chain >= 0 && !g.ChainForked(int(src.chain)) {
		vec := g.summaryOf(to)
		return int(src.chain) < len(vec) && vec[src.chain] > src.seq
	}
	return g.reachesBFS(from, to)
}

// reachesBFS is the traversal fallback: walk backwards from `to` — the
// predecessor closure is typically smaller than the successor closure in
// an append-only DAG — and never below `from`: an ancestor has a smaller
// number than its descendant.
func (g *DAG[K]) reachesBFS(from, to int32) bool {
	if from > to {
		return false
	}
	seen := make([]bool, to-from)
	stack := []int32{to}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.predsOf(cur) {
			if p == from {
				return true
			}
			if p < from || seen[p-from] {
				continue
			}
			seen[p-from] = true
			stack = append(stack, p)
		}
	}
	return false
}

// Ancestry returns every vertex reachable backwards from v, including v
// itself (the causal past of v), in unspecified order.
func (g *DAG[K]) Ancestry(v K) []K {
	n, ok := g.find(v)
	if !ok {
		return nil
	}
	seen := make([]bool, n+1)
	seen[n] = true
	out := []K{v}
	stack := []int32{n}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range g.predsOf(cur) {
			if seen[p] {
				continue
			}
			seen[p] = true
			out = append(out, g.rows[p].key)
			stack = append(stack, p)
		}
	}
	return out
}

// predsIn returns the predecessors of g's vertex n that are vertices of h,
// as h's numbers.
func (g *DAG[K]) predsIn(n int32, h *DAG[K]) []int32 {
	var out []int32
	for _, p := range g.predsOf(n) {
		if m, ok := h.find(g.rows[p].key); ok {
			out = append(out, m)
		}
	}
	return out
}

// Leq reports g ⩽ h per the paper's Section 2: V_g ⊆ V_h and
// E_g = E_h ∩ (V_g × V_g). Note the equality: h must not contain extra
// edges between vertices already in g.
func (g *DAG[K]) Leq(h *DAG[K]) bool {
	for n := range g.rows {
		m, ok := h.find(g.rows[n].key)
		// E_g ⊆ E_h restricted to V_g is equivalent to comparing
		// predecessor sets filtered to V_g, because all edges point
		// into their endpoint vertex.
		if !ok || !sameSet(g.predsOf(int32(n)), h.predsIn(m, g)) {
			return false
		}
	}
	return true
}
