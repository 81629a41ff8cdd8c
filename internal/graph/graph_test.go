package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// buildLinear returns a chain v0 ⇀ v1 ⇀ ... ⇀ v(n-1).
func buildLinear(t *testing.T, n int) *DAG[int] {
	t.Helper()
	g := New[int]()
	for i := 0; i < n; i++ {
		var preds []int
		if i > 0 {
			preds = []int{i - 1}
		}
		if err := g.InsertChained(i, preds, -1, 0); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	return g
}

func TestInsertBasics(t *testing.T) {
	g := New[string]()
	if err := g.InsertChained("a", nil, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.InsertChained("b", []string{"a"}, -1, 0); err != nil {
		t.Fatal(err)
	}
	if !g.Contains("a") || !g.Contains("b") || g.Contains("c") {
		t.Fatal("Contains wrong")
	}
	if got := predKeys(g, "b"); len(got) != 1 || got[0] != "a" {
		t.Fatalf("preds of b = %v", got)
	}
	if g.Len() != 2 {
		t.Fatalf("Len = %d", g.Len())
	}
}

// TestInsertIdempotent checks Lemma 2.2(1): if v ∈ G and E ⊆ EG then
// insert(G, v, E) = G.
func TestInsertIdempotent(t *testing.T) {
	g := buildLinear(t, 3)
	before := g.Order()
	if err := g.InsertChained(1, []int{0}, -1, 0); err != nil {
		t.Fatalf("re-insert: %v", err)
	}
	after := g.Order()
	if len(before) != len(after) {
		t.Fatalf("idempotent insert changed vertex count: %v -> %v", before, after)
	}
	if got := predKeys(g, 1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("idempotent insert changed edges: preds of 1 = %v", got)
	}
}

// TestInsertEdgeMismatch checks that re-inserting a vertex with different
// edges is rejected — blocks are immutable, so this indicates corruption.
func TestInsertEdgeMismatch(t *testing.T) {
	g := buildLinear(t, 3)
	if err := g.InsertChained(1, []int{0, 2}, -1, 0); !errors.Is(err, ErrEdgeMismatch) {
		t.Fatalf("Insert with different edges = %v, want ErrEdgeMismatch", err)
	}
}

// TestInsertMissingPred checks the Definition 2.1 restriction: edges may
// only come from vertices already in the graph.
func TestInsertMissingPred(t *testing.T) {
	g := New[int]()
	if err := g.InsertChained(1, []int{0}, -1, 0); !errors.Is(err, ErrMissingPred) {
		t.Fatalf("Insert with missing pred = %v, want ErrMissingPred", err)
	}
	if g.Contains(1) {
		t.Fatal("failed insert mutated the graph")
	}
}

// TestInsertExtends checks Lemma 2.2(2): G ⩽ insert(G, v, E) for fresh v.
func TestInsertExtends(t *testing.T) {
	g := buildLinear(t, 4)
	snapshot := buildLinear(t, 4)
	if err := g.InsertChained(4, []int{3, 1}, -1, 0); err != nil {
		t.Fatal(err)
	}
	if !snapshot.Leq(g) {
		t.Fatal("G ⩽ insert(G, v, E) violated")
	}
	if g.Leq(snapshot) {
		t.Fatal("extended graph ⩽ original, want strict extension")
	}
}

// TestAcyclicByConstruction checks Lemma 2.2(3) on random insertion
// sequences: no vertex ever reaches itself.
func TestAcyclicByConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := New[int]()
		n := 2 + rng.Intn(30)
		for v := 0; v < n; v++ {
			var preds []int
			for p := 0; p < v; p++ {
				if rng.Intn(3) == 0 {
					preds = append(preds, p)
				}
			}
			if err := g.InsertChained(v, preds, -1, 0); err != nil {
				t.Fatal(err)
			}
		}
		for v := 0; v < n; v++ {
			if g.Reaches(v, v) {
				t.Fatalf("trial %d: cycle through %d", trial, v)
			}
		}
	}
}

// TestReinsertTakesEdgesAsASet: E is a set, so re-inserting a vertex with
// its edges listed in another order is the no-op of Lemma 2.2(1), below
// smallLen (the linear scan) and above it (sorted copies).
func TestReinsertTakesEdgesAsASet(t *testing.T) {
	for _, k := range []int{2, smallLen + 4} {
		g := New[int]()
		preds := make([]int, k)
		for i := range preds {
			if err := g.InsertChained(i, nil, -1, 0); err != nil {
				t.Fatal(err)
			}
			preds[i] = i
		}
		if err := g.InsertChained(k, preds, -1, 0); err != nil {
			t.Fatal(err)
		}
		slices.Reverse(preds)
		if err := g.InsertChained(k, preds, -1, 0); err != nil {
			t.Fatalf("%d edges in reverse order: %v", k, err)
		}
		if err := g.InsertChained(k, preds[1:], -1, 0); !errors.Is(err, ErrEdgeMismatch) {
			t.Fatalf("%d edges less one: %v, want ErrEdgeMismatch", k, err)
		}
		if g.Len() != k+1 {
			t.Fatalf("re-inserts changed the vertex count to %d", g.Len())
		}
	}
}

func TestReaches(t *testing.T) {
	// 0 ⇀ 1 ⇀ 3, 0 ⇀ 2, 2 ⇀ 3, 4 isolated.
	g := New[int]()
	for _, step := range []struct {
		v     int
		preds []int
	}{{0, nil}, {1, []int{0}}, {2, []int{0}}, {3, []int{1, 2}}, {4, nil}} {
		if err := g.InsertChained(step.v, step.preds, -1, 0); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		u, v int
		want bool
	}{
		{0, 3, true}, {0, 1, true}, {1, 3, true}, {2, 3, true},
		{3, 0, false}, {1, 2, false}, {0, 4, false}, {4, 4, false},
		{0, 0, false}, // ⇀+ is irreflexive on a DAG
	}
	for _, tc := range cases {
		if got := g.Reaches(tc.u, tc.v); got != tc.want {
			t.Errorf("Reaches(%d,%d) = %v, want %v", tc.u, tc.v, got, tc.want)
		}
	}
}

func TestAncestry(t *testing.T) {
	g := New[int]()
	for _, step := range []struct {
		v     int
		preds []int
	}{{0, nil}, {1, []int{0}}, {2, []int{0}}, {3, []int{1, 2}}} {
		if err := g.InsertChained(step.v, step.preds, -1, 0); err != nil {
			t.Fatal(err)
		}
	}
	anc := g.Ancestry(3)
	if len(anc) != 4 {
		t.Fatalf("Ancestry(3) = %v, want all four vertices", anc)
	}
	if got := g.Ancestry(1); len(got) != 2 {
		t.Fatalf("Ancestry(1) = %v", got)
	}
	if got := g.Ancestry(99); got != nil {
		t.Fatalf("Ancestry of absent vertex = %v", got)
	}
}

func TestOrderIsTopological(t *testing.T) {
	g := buildLinear(t, 10)
	order := g.Order()
	pos := make(map[int]int, len(order))
	for i, v := range order {
		pos[v] = i
	}
	for _, v := range order {
		for _, p := range predKeys(g, v) {
			if pos[p] >= pos[v] {
				t.Fatalf("order not topological: %d before %d", v, p)
			}
		}
	}
}

// TestLeqEdgeEquality exercises the subtlety the paper highlights after
// Lemma 2.2: G ⩽ G' requires EG to equal EG' restricted to VG, not merely
// be contained in it.
func TestLeqEdgeEquality(t *testing.T) {
	// g: two disconnected vertices 1, 2.
	g := New[int]()
	if err := g.InsertChained(1, nil, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.InsertChained(2, nil, -1, 0); err != nil {
		t.Fatal(err)
	}
	// h: same vertices but with edge 1 ⇀ 2.
	h := New[int]()
	if err := h.InsertChained(1, nil, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.InsertChained(2, []int{1}, -1, 0); err != nil {
		t.Fatal(err)
	}
	if g.Leq(h) {
		t.Fatal("g ⩽ h despite h containing an extra edge between g's vertices")
	}
	if !g.Leq(g) || !h.Leq(h) {
		t.Fatal("⩽ not reflexive")
	}
}

// Union returns a new DAG containing the union of vertices and edges of g
// and h (paper Section 3, joint block DAG G_s ∪ G_s'): the tests' reference
// for the joint DAG. Union requires the
// two graphs to agree on the predecessor set of every shared vertex — true
// for block DAGs, where a block's edge set is determined by its content —
// and returns ErrEdgeMismatch otherwise. Chain annotations are carried
// over (g's takes precedence on shared vertices).
func (g *DAG[K]) Union(h *DAG[K]) (*DAG[K], error) {
	merged := New[K]()
	// g's rows, then h's that g lacks; a shared vertex must have all of
	// its h-edges in g and as many in g as in h.
	type row struct {
		src *DAG[K]
		n   int32
	}
	var pending []row
	for n := range g.rows {
		pending = append(pending, row{g, int32(n)})
	}
	for m := range h.rows {
		n, shared := g.find(h.rows[m].key)
		if !shared {
			pending = append(pending, row{h, int32(m)})
		} else if in := h.predsIn(int32(m), g); len(in) != len(h.predsOf(int32(m))) || !sameSet(g.predsOf(n), in) {
			return nil, fmt.Errorf("%w: %v", ErrEdgeMismatch, h.rows[m].key)
		}
	}
	// Kahn-style repeated passes: insert any vertex whose predecessors
	// are all present. Both inputs are acyclic, so this terminates.
	for len(pending) > 0 {
		var next []row
		for _, r := range pending {
			v := &r.src.rows[r.n]
			pos := v
			if r.src == g && v.chain < 0 {
				if m, shared := h.find(v.key); shared {
					pos = &h.rows[m] // annotated in h only
				}
			}
			preds := r.src.keys(r.src.predsOf(r.n))
			if slices.ContainsFunc(preds, func(p K) bool { return !merged.Contains(p) }) {
				next = append(next, r)
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

func TestUnion(t *testing.T) {
	// g: 0 ⇀ 1; h: 0 ⇀ 2. Union: both.
	g := New[int]()
	if err := g.InsertChained(0, nil, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.InsertChained(1, []int{0}, -1, 0); err != nil {
		t.Fatal(err)
	}
	h := New[int]()
	if err := h.InsertChained(0, nil, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.InsertChained(2, []int{0}, -1, 0); err != nil {
		t.Fatal(err)
	}
	u, err := g.Union(h)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 3 {
		t.Fatalf("union Len = %d, want 3", u.Len())
	}
	if !g.Leq(u) || !h.Leq(u) {
		t.Fatal("inputs not ⩽ union")
	}
}

func TestUnionEdgeDisagreementRejected(t *testing.T) {
	g := New[int]()
	if err := g.InsertChained(0, nil, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.InsertChained(1, []int{0}, -1, 0); err != nil {
		t.Fatal(err)
	}
	h := New[int]()
	if err := h.InsertChained(1, nil, -1, 0); err != nil { // same vertex, different preds
		t.Fatal(err)
	}
	if _, err := g.Union(h); !errors.Is(err, ErrEdgeMismatch) {
		t.Fatalf("Union = %v, want ErrEdgeMismatch", err)
	}
}

func TestUnionInterleavedOrders(t *testing.T) {
	// Vertices must be insertable even when neither input's order alone
	// is a valid order for the union (diamond split across inputs).
	g := New[int]()
	if err := g.InsertChained(0, nil, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.InsertChained(1, []int{0}, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.InsertChained(3, []int{1}, -1, 0); err != nil {
		t.Fatal(err)
	}
	h := New[int]()
	if err := h.InsertChained(0, nil, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.InsertChained(2, []int{0}, -1, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.InsertChained(4, []int{2}, -1, 0); err != nil {
		t.Fatal(err)
	}
	u, err := g.Union(h)
	if err != nil {
		t.Fatal(err)
	}
	if u.Len() != 5 {
		t.Fatalf("union Len = %d, want 5", u.Len())
	}
}

// TestLeqQuick property: any prefix of an insertion sequence is ⩽ the
// final graph.
func TestLeqQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		cut := rng.Intn(n)
		full, prefix := New[int](), New[int]()
		for v := 0; v < n; v++ {
			var preds []int
			for p := 0; p < v; p++ {
				if rng.Intn(2) == 0 {
					preds = append(preds, p)
				}
			}
			if err := full.InsertChained(v, preds, -1, 0); err != nil {
				return false
			}
			if v < cut {
				if err := prefix.InsertChained(v, preds, -1, 0); err != nil {
					return false
				}
			}
		}
		return prefix.Leq(full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
