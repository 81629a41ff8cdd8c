package graph

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// clone is a deep copy of the reference, as Clone is of a graph.
func (r *refDAG) clone() *refDAG {
	cp := &refDAG{
		index: maps.Clone(r.index), order: slices.Clone(r.order), preds: maps.Clone(r.preds),
		succs: maps.Clone(r.succs), chains: maps.Clone(r.chains), summary: maps.Clone(r.summary),
		slots: maps.Clone(r.slots), forked: maps.Clone(r.forked),
	}
	for v, s := range cp.succs {
		cp.succs[v] = slices.Clone(s) // the one list the reference appends to
	}
	return cp
}

// TestViewsAreCapped: PredsAt and Summary are views into columns every row
// shares, so an append to one must copy rather than write into the next
// row's part.
func TestViewsAreCapped(t *testing.T) {
	g, _ := build(t, randomSpecs(rand.New(rand.NewSource(3)), 3, 64))
	for i := 0; i+1 < g.Len(); i++ {
		preds, sum := slices.Clone(g.PredsAt(i+1)), slices.Clone(g.Summary(i+1))
		_ = append(g.PredsAt(i), -1)
		_ = append(g.Summary(i), 1<<60)
		if !slices.Equal(g.PredsAt(i+1), preds) || !slices.Equal(g.Summary(i+1), sum) {
			t.Fatalf("an append to row %d's views wrote row %d: preds %v → %v, summary %v → %v",
				i, i+1, preds, g.PredsAt(i+1), sum, g.Summary(i+1))
		}
	}
}

// TestLookupAllocs pins what the columns promise: a lookup hashes the key
// where it lies and reads rows in place, so Index, Contains, the fork-free
// Reaches, PredsAt and Summary allocate nothing; an insert pays only its
// share of the columns' and the index's growth, at most one allocation a
// vertex over 4 096 of them.
func TestLookupAllocs(t *testing.T) {
	const chains, size = 4, 4096
	keys, preds := staggered(chains, size)
	var g *DAG[key]
	perVertex := testing.AllocsPerRun(3, func() { g = insertStaggered(t, chains, keys, preds) }) / size
	t.Logf("InsertChained: %.3f allocations a vertex", perVertex)
	if perVertex > 1 {
		t.Errorf("InsertChained makes %.3f allocations a vertex, want at most 1", perVertex)
	}
	u, v := keys[100], keys[size-1]
	at, _ := g.Index(v)
	for _, read := range []struct {
		name string
		f    func()
	}{
		{"Index", func() { g.Index(v) }},
		{"Contains", func() { g.Contains(u) }},
		{"Reaches", func() {
			if !g.Reaches(u, v) {
				t.Fatal("Reaches: no path on a staggered graph")
			}
		}},
		{"PredsAt", func() { g.PredsAt(at) }},
		{"Summary", func() { g.Summary(at) }},
	} {
		if allocs := testing.AllocsPerRun(100, read.f); allocs != 0 {
			t.Errorf("%s makes %v allocations a call, want 0", read.name, allocs)
		}
	}
}

// FuzzRows is the row layout's differential target. The bytes are a
// program over a few graphs at once — an insert into a new slot, a
// duplicate insert, an edge mismatch, a missing predecessor, a seeded root,
// a fork into a taken slot, and Clone, which adds a graph — run on the rows
// and on the map-per-property reference alike. After each step the graph
// stepped must give the reference's verdict and answers (Index, PredsAt as
// a set, Summary, Tips, Reaches, ChainForked and the rest requireSame
// asks), and at the end every graph must: no clone wrote into another's
// columns.
func FuzzRows(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 2, 6, 0, 0, 1, 1, 0, 0, 0, 2, 1, 5, 0, 0, 5, 1, 0, 3, 0, 0, 4, 1, 2, 3, 1, 1, 2, 0, 0, 0, 2, 0, 1, 1, 2, 0})
	f.Add([]byte{4, 0, 0, 5, 0, 4, 0, 1, 2, 1, 3, 0, 0, 1, 0, 0, 0, 1, 6, 0, 0, 1, 1, 5, 1, 0, 0, 0, 3, 1, 0, 2, 1, 1, 0})
	rng := rand.New(rand.NewSource(1))
	for range 3 {
		prog := make([]byte, 192)
		rng.Read(prog)
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		const chains, maxSteps, maxGraphs = 3, 64, 4
		type pair struct {
			g *DAG[int]
			r *refDAG
		}
		graphs := []pair{{New[int](), newRef()}}
		next := func() int {
			if len(prog) == 0 {
				return 0
			}
			b := prog[0]
			prog = prog[1:]
			return int(b)
		}
		fresh := 0 // the next vertex key, never used by any graph
		for step := 0; step < maxSteps && len(prog) > 0; step++ {
			op, p := next()%7, graphs[next()%len(graphs)]
			order := p.r.order
			pick := func() int { return order[next()%len(order)] }
			var annotated []int
			for _, v := range order {
				if _, ok := p.r.chains[v]; ok {
					annotated = append(annotated, v)
				}
			}
			s := spec{v: fresh, chain: -1}
			switch {
			case op == 0: // a new vertex in the slot above its chain's top, and more edges
				s.chain = next()%(chains+1) - 1
				top := -1
				for _, v := range annotated {
					if pos := p.r.chains[v]; pos.chain == s.chain && (top < 0 || pos.seq >= p.r.chains[top].seq) {
						top = v
					}
				}
				if top >= 0 {
					s.seq, s.preds = p.r.chains[top].seq+1, []int{top}
				}
				for extra := next() % 3; extra > 0 && len(order) > 0; extra-- {
					s.preds = append(s.preds, pick())
				}
			case op == 1 && len(order) > 0: // the same vertex again, its edges listed twice
				s.v = pick()
				s.preds = append(slices.Clone(p.r.preds[s.v]), p.r.preds[s.v]...)
				if pos, ok := p.r.chains[s.v]; ok {
					s.chain, s.seq = pos.chain, pos.seq
				}
			case op == 2 && len(order) > 0: // the same vertex with an edge more or one fewer
				s.v = pick()
				if preds := p.r.preds[s.v]; len(preds) > 0 && next()%2 == 0 {
					s.preds = slices.Clone(preds[1:])
				} else {
					s.preds = append(slices.Clone(preds), pick())
				}
			case op == 3: // a vertex citing one that is not there
				s.preds = []int{-1 - fresh}
				if len(order) > 0 {
					s.preds = append(s.preds, pick())
				}
			case op == 4: // a seeded root, now and then above a pruned prefix
				s.chain, s.seq, s.seeded = next()%chains, uint64(next()%8), true
				if next()%2 == 1 {
					s.below = make([]uint64, 1+next()%chains)
					for c := range s.below {
						s.below[c] = uint64(next() % 4)
					}
				}
			case op == 5 && len(annotated) > 0: // a second vertex in a taken slot, citing what the first does
				u := annotated[next()%len(annotated)]
				s.chain, s.seq, s.preds = p.r.chains[u].chain, p.r.chains[u].seq, slices.Clone(p.r.preds[u])
			case op == 6 && len(graphs) < maxGraphs:
				p = pair{p.g.Clone(), p.r.clone()}
				graphs = append(graphs, p)
				requireSame(t, p.g, p.r, chains)
				continue
			default:
				continue
			}
			if s.v == fresh {
				fresh++
			}
			insertBoth(t, p.g, p.r, s)
			requireSame(t, p.g, p.r, chains)
		}
		for _, p := range graphs {
			requireSame(t, p.g, p.r, chains)
		}
	})
}
