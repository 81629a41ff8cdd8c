package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// chainPos is a vertex annotation: position seq on chain chain.
type chainPos struct {
	chain int
	seq   uint64
}

// oracleReaches is the index-free reference: backward DFS over preds.
func oracleReaches(preds map[int][]int, u, v int) bool {
	seen := map[int]struct{}{v: {}}
	stack := []int{v}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range preds[cur] {
			if p == u {
				return true
			}
			if _, ok := seen[p]; ok {
				continue
			}
			seen[p] = struct{}{}
			stack = append(stack, p)
		}
	}
	return false
}

// randomChainedDAG builds a random annotated DAG over `chains` chains with
// ~size vertices. Each chain grows as a parent-linked path; with
// probability forkP a chain forks: a new branch restarts from an earlier
// chain vertex, creating a duplicate (chain, seq) slot. Every vertex also
// picks random extra predecessors among existing vertices. It returns the
// graph, the raw predecessor lists (for the oracle), and each vertex's
// annotation.
func randomChainedDAG(rng *rand.Rand, chains, size int, forkP float64) (*DAG[int], map[int][]int, map[int]chainPos) {
	g := New[int]()
	rawPreds := make(map[int][]int)
	annot := make(map[int]chainPos)
	// Per chain: all vertices in seq order per branch. branches[c] holds
	// (vertex, seq) tips.
	type tip struct {
		v   int
		seq uint64
	}
	branches := make([][]tip, chains)
	var all []int
	next := 0
	for next < size {
		c := rng.Intn(chains)
		v := next
		next++
		var preds []int
		var seq uint64
		switch {
		case len(branches[c]) == 0:
			// genesis
			branches[c] = append(branches[c], tip{v: v, seq: 0})
		case rng.Float64() < forkP && branches[c][0].seq > 0:
			// fork: branch off the chain at a random earlier seq,
			// duplicating the slot at thatSeq+1 (the existing branch
			// already holds a vertex there or will).
			base := branches[c][rng.Intn(len(branches[c]))]
			// Find the parent of base's branch vertex at seq-1 if
			// possible; simplest valid fork: a second vertex at
			// base.seq+1 with base as parent.
			seq = base.seq + 1
			preds = append(preds, base.v)
			branches[c] = append(branches[c], tip{v: v, seq: seq})
		default:
			// extend a random branch
			bi := rng.Intn(len(branches[c]))
			b := branches[c][bi]
			seq = b.seq + 1
			preds = append(preds, b.v)
			branches[c][bi] = tip{v: v, seq: seq}
		}
		// Random extra predecessors among existing vertices.
		for _, cand := range all {
			if rng.Float64() < 0.08 && cand != v {
				preds = append(preds, cand)
			}
		}
		if err := g.InsertChained(v, preds, c, seq); err != nil {
			panic(fmt.Sprintf("insert %d: %v", v, err))
		}
		rawPreds[v] = append([]int(nil), preds...)
		annot[v] = chainPos{chain: c, seq: seq}
		all = append(all, v)
	}
	return g, rawPreds, annot
}

// TestCausalIndexMatchesOracle checks the O(1) watermark answers against
// the traversal oracle on random DAGs with equivocating chains: every
// (u, v) pair must agree, whether u's chain is honest or forked.
func TestCausalIndexMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		chains := 2 + rng.Intn(4)
		g, rawPreds, _ := randomChainedDAG(rng, chains, 60, 0.15)
		n := g.Len()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := oracleReaches(rawPreds, u, v)
				if got := g.Reaches(u, v); got != want {
					t.Fatalf("seed %d: Reaches(%d, %d) = %v, oracle %v (forked=%v)",
						seed, u, v, got, want, g.ChainForked(0))
				}
			}
		}
	}
}

// TestCausalIndexForkFlag checks that a duplicate (chain, seq) slot flags
// the chain and only that chain.
func TestCausalIndexForkFlag(t *testing.T) {
	g := New[string]()
	// Chain 0: a0 -> a1. Chain 1: b0.
	mustChain := func(v string, preds []string, chain int, seq uint64) {
		t.Helper()
		if err := g.InsertChained(v, preds, chain, seq); err != nil {
			t.Fatalf("insert %s: %v", v, err)
		}
	}
	mustChain("a0", nil, 0, 0)
	mustChain("a1", []string{"a0"}, 0, 1)
	mustChain("b0", []string{"a1"}, 1, 0)
	if g.ChainForked(0) || g.ChainForked(1) {
		t.Fatal("no fork yet")
	}
	// Equivocation: a second vertex in slot (0, 1).
	mustChain("a1'", []string{"a0"}, 0, 1)
	if !g.ChainForked(0) {
		t.Fatal("chain 0 fork not flagged")
	}
	if g.ChainForked(1) {
		t.Fatal("honest chain 1 flagged")
	}
	// Queries from the forked chain fall back to BFS and stay correct:
	// a1 and a1' are concurrent, both reach from a0.
	if g.Reaches("a1", "a1'") || g.Reaches("a1'", "a1") {
		t.Fatal("fork branches must be unordered")
	}
	if !g.Reaches("a0", "a1'") || !g.Reaches("a0", "a1") {
		t.Fatal("fork root must reach both branches")
	}
	// Queries from the honest chain keep working.
	if g.Reaches("b0", "a1") || !g.Reaches("a1", "b0") {
		t.Fatal("honest chain answers wrong")
	}
}

// TestSummary checks the summary accessor on a small shape.
func TestSummary(t *testing.T) {
	g := New[string]()
	if err := g.InsertChained("a0", nil, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := g.InsertChained("a1", []string{"a0"}, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.InsertChained("b0", []string{"a1"}, 1, 0); err != nil {
		t.Fatal(err)
	}
	// b0 has a1 (chain 0, seq 1) and itself (chain 1, seq 0) in its
	// ancestry-or-self; a0 has no chain-1 ancestor, and no entry for one.
	if got := g.Summary(2); !slices.Equal(got, []uint64{2, 1}) {
		t.Fatalf("Summary(b0) = %v, want [2 1]", got)
	}
	if got := g.Summary(0); !slices.Equal(got, []uint64{1}) {
		t.Fatalf("Summary(a0) = %v, want [1]", got)
	}
}

// TestUnionPreservesIndex checks that Union carries the annotations: O(1)
// answers on the union stay correct.
func TestUnionPreservesIndex(t *testing.T) {
	g, rawPreds, _ := randomChainedDAG(rand.New(rand.NewSource(7)), 3, 40, 0.1)
	h, _, _ := randomChainedDAG(rand.New(rand.NewSource(7)), 3, 40, 0.1)
	un, err := g.Union(h)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.Len(); u++ {
		for v := 0; v < g.Len(); v++ {
			if un.Reaches(u, v) != oracleReaches(rawPreds, u, v) {
				t.Fatalf("union Reaches(%d, %d) diverges", u, v)
			}
		}
	}
}
