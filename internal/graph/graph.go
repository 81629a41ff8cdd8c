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
// number At takes and Index returns — and that number is the only key:
// one map takes a vertex key to its number, and everything the graph knows
// about the vertex (key, predecessor list, chain position, summary vector,
// whether anything cites it) is one row of one slice, its predecessors held
// as the numbers of other rows. Edges are kept at their head only: a vertex
// is a tip until something first cites it, which one bit records, and no
// query walks forwards. The tip set and each chain's slot column are short
// lists of numbers. A predecessor always has a smaller number than its
// successor, so the rows are a topological order and any prefix of them is a
// ⩽-smaller graph.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
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

// smallLen is the list size below which dedup and set comparison use
// allocation-free linear scans instead of map-backed sets. Block
// predecessor lists are almost always below it (≤ roster size in practice).
const smallLen = 16

// vertex is one row: everything the graph holds about the vertex with
// this number.
type vertex[K comparable] struct {
	key   K
	preds []int32 // direct predecessors (u with u ⇀ v), insert order
	// summary[c] holds 1 + the highest chain-c seq in the vertex's
	// ancestry-or-self, 0 for none, so the zero value of a short vector
	// means "no such ancestor"; nil when all-zero.
	summary []uint64
	seq     uint64
	chain   int32 // -1: not annotated
	cited   bool  // some vertex has it as a predecessor: not a tip
}

// DAG is a directed acyclic graph over comparable vertex keys. The zero
// value is not ready to use; construct with New. A DAG is not safe for
// concurrent mutation.
type DAG[K comparable] struct {
	index map[K]int32 // vertex -> its number, the position of its row
	rows  []vertex[K] // insertion order; a topological order by construction
	tips  []int32     // vertices nothing cites, ascending

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
	return &DAG[K]{index: make(map[K]int32)}
}

// Len returns the number of vertices.
func (g *DAG[K]) Len() int { return len(g.rows) }

// Contains reports whether v is a vertex of g.
func (g *DAG[K]) Contains(v K) bool {
	_, ok := g.index[v]
	return ok
}

// Index returns v's number: its position in insertion order, the i with
// At(i) == v.
func (g *DAG[K]) Index(v K) (int, bool) {
	i, ok := g.index[v]
	return int(i), ok
}

// Insert adds vertex v with edges from each vertex in preds to v,
// implementing insert(G, v, E) of Definition 2.1. Duplicate entries in
// preds are collapsed to a single edge (E is a set).
//
// Inserting an existing vertex with the same edge set is a no-op
// (Lemma 2.2(1)); with a different edge set it returns ErrEdgeMismatch.
// If any predecessor is absent it returns ErrMissingPred and leaves g
// unchanged. Because edges only ever point at the new vertex, g remains
// acyclic (Lemma 2.2(3)).
func (g *DAG[K]) Insert(v K, preds []K) error {
	return g.insert(v, preds, -1, 0, nil, false)
}

// InsertChained is Insert for a vertex annotated with a chain position:
// vertex v is element seq of chain chain (for block DAGs: builder and
// sequence number). The annotation feeds the causal summary index; see the
// package doc for the chain-connectivity invariant the caller guarantees
// and the equivocation fallback. Chain identifiers must be small,
// non-negative integers (they index the watermark vectors); a negative
// chain inserts the vertex unannotated.
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
	preds, absent := g.resolve(predKeys)
	if at, exists := g.index[v]; exists {
		if absent < 0 && sameSet(g.rows[at].preds, preds) {
			return nil
		}
		return fmt.Errorf("%w: %v", ErrEdgeMismatch, v)
	}
	if absent >= 0 {
		return fmt.Errorf("%w: %v", ErrMissingPred, predKeys[absent])
	}
	n := int32(len(g.rows))
	g.index[v] = n
	// Every predecessor stops being a tip; v starts as one.
	for _, p := range preds {
		if !g.rows[p].cited {
			g.rows[p].cited = true
			at, _ := slices.BinarySearch(g.tips, p)
			g.tips = slices.Delete(g.tips, at, at+1)
		}
	}
	g.tips = append(g.tips, n)
	g.rows = append(g.rows, vertex[K]{key: v, preds: preds, seq: seq, chain: int32(chain)})
	g.rows[n].summary = g.summarize(n, below, seeded)
	return nil
}

// resolve turns an edge set into vertex numbers, duplicates collapsed and
// order kept. absent is the position of the first key that is not a
// vertex, -1 when all are.
func (g *DAG[K]) resolve(keys []K) (nums []int32, absent int) {
	if len(keys) == 0 {
		return nil, -1
	}
	nums = make([]int32, 0, len(keys))
	var seen map[int32]struct{}
	if len(keys) > smallLen {
		seen = make(map[int32]struct{}, len(keys))
	}
	for i, k := range keys {
		n, ok := g.index[k]
		if !ok {
			return nil, i
		}
		if seen != nil {
			if _, dup := seen[n]; dup {
				continue
			}
			seen[n] = struct{}{}
		} else if slices.Contains(nums, n) {
			continue
		}
		nums = append(nums, n)
	}
	return nums, -1
}

// summarize computes the causal summary of the newest vertex n from its
// predecessors' (a seeded root's: from below) and files its chain
// annotation in the slot column, flagging chains that stop being
// well-formed (duplicate slot or broken connectivity).
func (g *DAG[K]) summarize(n int32, below []uint64, seeded bool) []uint64 {
	v := &g.rows[n]
	width := max(int(v.chain)+1, len(below))
	for _, p := range v.preds {
		width = max(width, len(g.rows[p].summary))
	}
	if width == 0 {
		return nil // no annotations anywhere in the ancestry
	}
	vec := make([]uint64, width)
	copy(vec, below)
	for _, p := range v.preds {
		for c, w := range g.rows[p].summary {
			vec[c] = max(vec[c], w)
		}
	}
	if v.chain < 0 {
		return vec
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
	return vec
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
func (g *DAG[K]) Summary(i int) []uint64 { return g.rows[i].summary }

// PredsAt returns the numbers of vertex i's direct predecessors, read-only,
// and Pos its chain annotation (chain -1: none).
func (g *DAG[K]) PredsAt(i int) []int32 { return g.rows[i].preds }
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

// keys returns the keys of the numbered vertices, in the order given; nil
// for none. The result is fresh.
func (g *DAG[K]) keys(nums []int32) []K {
	if len(nums) == 0 {
		return nil
	}
	out := make([]K, len(nums))
	for i, n := range nums {
		out[i] = g.rows[n].key
	}
	return out
}

// Preds returns the direct predecessors of v (vertices u with u ⇀ v) in
// insertion order. The result is a copy.
func (g *DAG[K]) Preds(v K) []K {
	if n, ok := g.index[v]; ok {
		return g.keys(g.rows[n].preds)
	}
	return nil
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

// Tips returns the vertices no vertex cites, in insertion order. The tip
// set is maintained incrementally at insert; this call only copies it.
func (g *DAG[K]) Tips() []K { return g.keys(g.tips) }

// NumTips returns the number of tips without copying.
func (g *DAG[K]) NumTips() int { return len(g.tips) }

// Reaches reports whether v is reachable from u in one or more steps,
// written u ⇀+ v in the paper.
//
// When u was inserted with a chain annotation (InsertChained) and its
// chain is well-formed, the answer is a single watermark compare — O(1),
// allocation-free. Vertices of flagged (equivocating) chains and
// unannotated vertices fall back to a backwards BFS from v.
func (g *DAG[K]) Reaches(u, v K) bool {
	from, okU := g.index[u]
	to, okV := g.index[v]
	if !okU || !okV || from == to {
		return false
	}
	if src := &g.rows[from]; src.chain >= 0 && !g.ChainForked(int(src.chain)) {
		vec := g.rows[to].summary
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
		for _, p := range g.rows[cur].preds {
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

// ReachesReflexive reports u ⇀* v: v is reachable from u in zero or more
// steps.
func (g *DAG[K]) ReachesReflexive(u, v K) bool {
	if u == v {
		return g.Contains(u)
	}
	return g.Reaches(u, v)
}

// Ancestry returns every vertex reachable backwards from v, including v
// itself (the causal past of v), in unspecified order.
func (g *DAG[K]) Ancestry(v K) []K {
	n, ok := g.index[v]
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
		for _, p := range g.rows[cur].preds {
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
	for _, p := range g.rows[n].preds {
		if m, ok := h.index[g.rows[p].key]; ok {
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
		m, ok := h.index[g.rows[n].key]
		// E_g ⊆ E_h restricted to V_g is equivalent to comparing
		// predecessor sets filtered to V_g, because all edges point
		// into their endpoint vertex.
		if !ok || !sameSet(g.rows[n].preds, h.predsIn(m, g)) {
			return false
		}
	}
	return true
}

// Union returns a new DAG containing the union of vertices and edges of g
// and h (paper Section 3, joint block DAG G_s ∪ G_s'). Union requires the
// two graphs to agree on the predecessor set of every shared vertex — true
// for block DAGs, where a block's edge set is determined by its content —
// and returns ErrEdgeMismatch otherwise. Chain annotations are carried
// over (g's takes precedence on shared vertices).
func (g *DAG[K]) Union(h *DAG[K]) (*DAG[K], error) {
	merged := New[K]()
	// g's rows, then h's that g lacks; a shared vertex must have all of
	// its h-edges in g and as many in g as in h.
	var pending []*vertex[K]
	for n := range g.rows {
		pending = append(pending, &g.rows[n])
	}
	for m := range h.rows {
		v := &h.rows[m]
		n, shared := g.index[v.key]
		if !shared {
			pending = append(pending, v)
		} else if in := h.predsIn(int32(m), g); len(in) != len(v.preds) || !sameSet(g.rows[n].preds, in) {
			return nil, fmt.Errorf("%w: %v", ErrEdgeMismatch, v.key)
		}
	}
	// Kahn-style repeated passes: insert any vertex whose predecessors
	// are all present. Both inputs are acyclic, so this terminates.
	for len(pending) > 0 {
		var next []*vertex[K]
		for _, v := range pending {
			src, pos := h, v
			if g.Contains(v.key) {
				src = g
				if m, shared := h.index[v.key]; shared && v.chain < 0 {
					pos = &h.rows[m] // annotated in h only
				}
			}
			preds := src.keys(v.preds)
			if slices.ContainsFunc(preds, func(p K) bool { return !merged.Contains(p) }) {
				next = append(next, v)
			} else if err := merged.InsertChained(v.key, preds, int(pos.chain), pos.seq); err != nil {
				return nil, err
			}
		}
		if len(next) == len(pending) {
			// Unreachable for acyclic inputs; report rather than
			// spin forever if an invariant was broken upstream.
			return nil, errors.New("graph: union did not converge; inputs not acyclic?")
		}
		pending = next
	}
	return merged, nil
}

// Clone returns a deep copy of g, chain annotations included: the rows are
// copied as they are, so the copy answers every query as g does (a seeded
// root stays one).
func (g *DAG[K]) Clone() *DAG[K] {
	// A row's preds and summary never change once written and stay shared.
	cp := &DAG[K]{
		index: maps.Clone(g.index), rows: slices.Clone(g.rows), tips: slices.Clone(g.tips),
		chains: slices.Clone(g.chains), dups: slices.Clone(g.dups),
	}
	for c := range cp.chains {
		cp.chains[c].slots = slices.Clone(cp.chains[c].slots)
	}
	return cp
}
