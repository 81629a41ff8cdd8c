package graph

import (
	"errors"
	"fmt"
	"math/rand"
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
		if err := g.Insert(i, preds); err != nil {
			t.Fatalf("Insert(%d): %v", i, err)
		}
	}
	return g
}

func TestInsertBasics(t *testing.T) {
	g := New[string]()
	if err := g.Insert("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert("b", []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if !g.Contains("a") || !g.Contains("b") || g.Contains("c") {
		t.Fatal("Contains wrong")
	}
	if got := g.Preds("b"); len(got) != 1 || got[0] != "a" {
		t.Fatalf("Preds(b) = %v", got)
	}
	if got := g.Tips(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("Tips() = %v, want b alone: a is cited", got)
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
	if err := g.Insert(1, []int{0}); err != nil {
		t.Fatalf("re-insert: %v", err)
	}
	after := g.Order()
	if len(before) != len(after) {
		t.Fatalf("idempotent insert changed vertex count: %v -> %v", before, after)
	}
	if got := g.Preds(1); len(got) != 1 || got[0] != 0 {
		t.Fatalf("idempotent insert changed edges: Preds(1) = %v", got)
	}
	if got := g.Tips(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("idempotent insert changed the tips: %v", got)
	}
}

// TestInsertEdgeMismatch checks that re-inserting a vertex with different
// edges is rejected — blocks are immutable, so this indicates corruption.
func TestInsertEdgeMismatch(t *testing.T) {
	g := buildLinear(t, 3)
	if err := g.Insert(1, []int{0, 2}); !errors.Is(err, ErrEdgeMismatch) {
		t.Fatalf("Insert with different edges = %v, want ErrEdgeMismatch", err)
	}
}

// TestInsertMissingPred checks the Definition 2.1 restriction: edges may
// only come from vertices already in the graph.
func TestInsertMissingPred(t *testing.T) {
	g := New[int]()
	if err := g.Insert(1, []int{0}); !errors.Is(err, ErrMissingPred) {
		t.Fatalf("Insert with missing pred = %v, want ErrMissingPred", err)
	}
	if g.Contains(1) {
		t.Fatal("failed insert mutated the graph")
	}
}

// TestInsertExtends checks Lemma 2.2(2): G ⩽ insert(G, v, E) for fresh v.
func TestInsertExtends(t *testing.T) {
	g := buildLinear(t, 4)
	snapshot := g.Clone()
	if err := g.Insert(4, []int{3, 1}); err != nil {
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
			if err := g.Insert(v, preds); err != nil {
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

func TestDedupPreds(t *testing.T) {
	g := New[int]()
	if err := g.Insert(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(1, []int{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if got := g.Preds(1); len(got) != 1 {
		t.Fatalf("duplicate preds not collapsed: %v", got)
	}
	if got := g.Tips(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("tips after a thrice-cited vertex: %v, want 1 alone", got)
	}
}

func TestReaches(t *testing.T) {
	// 0 ⇀ 1 ⇀ 3, 0 ⇀ 2, 2 ⇀ 3, 4 isolated.
	g := New[int]()
	for _, step := range []struct {
		v     int
		preds []int
	}{{0, nil}, {1, []int{0}}, {2, []int{0}}, {3, []int{1, 2}}, {4, nil}} {
		if err := g.Insert(step.v, step.preds); err != nil {
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
	if !g.ReachesReflexive(3, 3) {
		t.Error("ReachesReflexive(3,3) = false")
	}
	if !g.ReachesReflexive(0, 3) {
		t.Error("ReachesReflexive(0,3) = false")
	}
	if g.ReachesReflexive(5, 5) {
		t.Error("ReachesReflexive on absent vertex = true")
	}
}

func TestAncestry(t *testing.T) {
	g := New[int]()
	for _, step := range []struct {
		v     int
		preds []int
	}{{0, nil}, {1, []int{0}}, {2, []int{0}}, {3, []int{1, 2}}} {
		if err := g.Insert(step.v, step.preds); err != nil {
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

func TestTips(t *testing.T) {
	g := New[int]()
	for _, step := range []struct {
		v     int
		preds []int
	}{{0, nil}, {1, []int{0}}, {2, []int{0}}} {
		if err := g.Insert(step.v, step.preds); err != nil {
			t.Fatal(err)
		}
	}
	tips := g.Tips()
	if len(tips) != 2 || tips[0] != 1 || tips[1] != 2 {
		t.Fatalf("Tips = %v, want [1 2]", tips)
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
		for _, p := range g.Preds(v) {
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
	if err := g.Insert(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(2, nil); err != nil {
		t.Fatal(err)
	}
	// h: same vertices but with edge 1 ⇀ 2.
	h := New[int]()
	if err := h.Insert(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Insert(2, []int{1}); err != nil {
		t.Fatal(err)
	}
	if g.Leq(h) {
		t.Fatal("g ⩽ h despite h containing an extra edge between g's vertices")
	}
	if !g.Leq(g) || !h.Leq(h) {
		t.Fatal("⩽ not reflexive")
	}
}

func TestUnion(t *testing.T) {
	// g: 0 ⇀ 1; h: 0 ⇀ 2. Union: both.
	g := New[int]()
	if err := g.Insert(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(1, []int{0}); err != nil {
		t.Fatal(err)
	}
	h := New[int]()
	if err := h.Insert(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Insert(2, []int{0}); err != nil {
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
	if err := g.Insert(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(1, []int{0}); err != nil {
		t.Fatal(err)
	}
	h := New[int]()
	if err := h.Insert(1, nil); err != nil { // same vertex, different preds
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
	if err := g.Insert(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(1, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := g.Insert(3, []int{1}); err != nil {
		t.Fatal(err)
	}
	h := New[int]()
	if err := h.Insert(0, nil); err != nil {
		t.Fatal(err)
	}
	if err := h.Insert(2, []int{0}); err != nil {
		t.Fatal(err)
	}
	if err := h.Insert(4, []int{2}); err != nil {
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

// TestCloneIndependent: a clone is the same graph and then its own. Cloned
// just below and just above each of the index's first growths (its table
// holds 6, 12, 24 and 48 rows before it doubles), the original and the
// clone take turns at vertices the other does not get — a new slot, a fork
// into a taken one, a seeded root on a chain of its own — and each must
// still answer as its own reference does.
func TestCloneIndependent(t *testing.T) {
	const chains = 3
	for _, size := range []int{6, 7, 12, 13, 24, 25, 48, 49} {
		t.Run(fmt.Sprint("size=", size), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(size)))
			specs := randomSpecs(rng, chains, size)
			g, r := build(t, specs)
			cp, rcp := g.Clone(), r.clone()
			requireSame(t, cp, rcp, chains+2)
			sides := []struct {
				g *DAG[int]
				r *refDAG
			}{{g, r}, {cp, rcp}}
			for i := 0; i < 12; i++ {
				side := sides[i%2]
				s := spec{v: 1000*(1+i%2) + i, chain: rng.Intn(chains)}
				switch old := specs[rng.Intn(len(specs))]; i / 2 % 3 {
				case 0: // a new slot, citing a few old vertices
					s.seq = uint64(100 + i)
					for j := 0; j < 1+rng.Intn(4); j++ {
						s.preds = append(s.preds, specs[rng.Intn(len(specs))].v)
					}
				case 1: // a fork: old's slot, or a new one where old has none
					if old.chain >= 0 {
						s.chain, s.seq = old.chain, old.seq
					}
					s.preds = []int{old.v}
				case 2: // a seeded root on a chain of its own side's
					s.chain, s.seq, s.seeded = chains+i%2, uint64(rng.Intn(8)), true
					s.below = []uint64{uint64(rng.Intn(4)), 0, uint64(rng.Intn(4))}
				}
				insertBoth(t, side.g, side.r, s)
			}
			requireSame(t, g, r, chains+2)
			requireSame(t, cp, rcp, chains+2)
		})
	}
}

// TestLeqQuick property: any prefix of an insertion sequence is ⩽ the
// final graph.
func TestLeqQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		cut := rng.Intn(n)
		full := New[int]()
		var prefix *DAG[int]
		for v := 0; v < n; v++ {
			if v == cut {
				prefix = full.Clone()
			}
			var preds []int
			for p := 0; p < v; p++ {
				if rng.Intn(2) == 0 {
					preds = append(preds, p)
				}
			}
			if err := full.Insert(v, preds); err != nil {
				return false
			}
		}
		if prefix == nil {
			prefix = full.Clone()
		}
		return prefix.Leq(full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
