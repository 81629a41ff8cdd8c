package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refDAG is the naive reference the row layout is checked against: one map
// per property, all keyed by the vertex, sets compared through maps and
// reachability by BFS wherever the summary does not answer — the semantics
// this package had when every property was its own map.
type refDAG struct {
	index   map[int]int
	order   []int
	preds   map[int][]int
	chains  map[int]chainPos
	summary map[int][]uint64
	slots   map[chainPos]int
	forked  map[int]bool
}

func newRef() *refDAG {
	return &refDAG{
		index: map[int]int{}, preds: map[int][]int{},
		chains: map[int]chainPos{}, summary: map[int][]uint64{}, slots: map[chainPos]int{}, forked: map[int]bool{},
	}
}

func refSameSet(a, b []int) bool {
	set := map[int]bool{}
	for _, k := range a {
		set[k] = true
	}
	for _, k := range b {
		if !set[k] {
			return false
		}
	}
	return len(a) == len(b)
}

func (r *refDAG) insert(v int, preds []int, annotated, seeded bool, chain int, seq uint64, below []uint64) error {
	if _, ok := r.index[v]; ok {
		if refSameSet(r.preds[v], preds) {
			return nil
		}
		return ErrEdgeMismatch
	}
	for _, p := range preds {
		if _, ok := r.index[p]; !ok {
			return ErrMissingPred
		}
	}
	r.index[v] = len(r.order)
	r.order = append(r.order, v)
	r.preds[v] = preds
	width := len(below)
	if annotated {
		width = max(width, chain+1)
	}
	for _, p := range preds {
		width = max(width, len(r.summary[p]))
	}
	if width == 0 {
		return nil
	}
	vec := make([]uint64, width)
	copy(vec, below)
	for _, p := range preds {
		for c, w := range r.summary[p] {
			vec[c] = max(vec[c], w)
		}
	}
	if annotated {
		pos := chainPos{chain: chain, seq: seq}
		r.chains[v] = pos
		if _, taken := r.slots[pos]; taken {
			r.forked[chain] = true
		} else {
			r.slots[pos] = v
		}
		if vec[chain] != seq && !seeded {
			r.forked[chain] = true
		}
		vec[chain] = max(vec[chain], seq+1)
	}
	r.summary[v] = vec
	return nil
}

func (r *refDAG) ancestry(v int) map[int]bool {
	if _, ok := r.index[v]; !ok {
		return nil
	}
	seen := map[int]bool{v: true}
	queue := []int{v}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range r.preds[cur] {
			if !seen[p] {
				seen[p] = true
				queue = append(queue, p)
			}
		}
	}
	return seen
}

func (r *refDAG) reaches(u, v int) bool {
	if u == v {
		return false
	}
	if pos, ok := r.chains[u]; ok && !r.forked[pos.chain] {
		vec := r.summary[v]
		return pos.chain < len(vec) && vec[pos.chain] > pos.seq
	}
	_, ok := r.index[u]
	return ok && r.ancestry(v)[u]
}

func (r *refDAG) leq(h *refDAG) bool {
	for _, v := range r.order {
		if _, ok := h.index[v]; !ok {
			return false
		}
		var in []int
		for _, p := range h.preds[v] {
			if _, ok := r.index[p]; ok {
				in = append(in, p)
			}
		}
		if !refSameSet(r.preds[v], in) {
			return false
		}
	}
	return true
}

func (r *refDAG) union(h *refDAG) (*refDAG, error) {
	merged := newRef()
	pending := slices.Clone(r.order)
	for _, v := range h.order {
		if _, ok := r.index[v]; !ok {
			pending = append(pending, v)
		}
	}
	for len(pending) > 0 {
		var next []int
		for _, v := range pending {
			_, inR := r.index[v]
			_, inH := h.index[v]
			preds := h.preds[v]
			if inR {
				preds = r.preds[v]
			}
			if inR && inH && !refSameSet(r.preds[v], h.preds[v]) {
				return nil, ErrEdgeMismatch
			}
			if slices.ContainsFunc(preds, func(p int) bool { _, ok := merged.index[p]; return !ok }) {
				next = append(next, v)
				continue
			}
			pos, annotated := r.chains[v]
			if !annotated {
				pos, annotated = h.chains[v]
			}
			if err := merged.insert(v, preds, annotated, false, pos.chain, pos.seq, nil); err != nil {
				return nil, err
			}
		}
		if len(next) == len(pending) {
			return nil, errors.New("no progress")
		}
		pending = next
	}
	return merged, nil
}

// spec is one vertex of a generated DAG, as the caller would insert it.
type spec struct {
	v      int
	preds  []int // as given: may repeat an entry
	chain  int   // -1: not annotated
	seq    uint64
	seeded bool
	below  []uint64 // a seeded root's: the summary of what was pruned
}

// randomSpecs draws a DAG in creation order: per chain an optional seeded
// root — every other time all of them above one pruned prefix, as a block
// DAG seeds them — then vertices that extend a branch, fork one (a second vertex in a
// taken slot), skip a seq or leave the parent out (a connectivity
// violation), or carry no annotation at all — each with random extra
// predecessors, every predecessor once.
func randomSpecs(rng *rand.Rand, chains, size int) []spec {
	type tip struct {
		v   int
		seq uint64
	}
	var specs []spec
	branches := make([][]tip, chains)
	for c := range branches {
		if rng.Intn(3) == 0 {
			seq := uint64(1 + rng.Intn(50))
			branches[c] = []tip{{v: len(specs), seq: seq}}
			specs = append(specs, spec{v: len(specs), chain: c, seq: seq, seeded: true})
		}
	}
	if rng.Intn(2) == 0 {
		below := make([]uint64, chains)
		for _, s := range specs {
			below[s.chain] = s.seq + 1
		}
		for i := range specs {
			specs[i].below = below
		}
	}
	for len(specs) < size {
		s := spec{v: len(specs), chain: rng.Intn(chains)}
		br := branches[s.chain]
		switch roll := rng.Float64(); {
		case roll < 0.08:
			s.chain = -1
		case len(br) == 0:
			branches[s.chain] = []tip{{v: s.v}}
		case roll < 0.16: // fork: a sibling of some branch tip's successor-to-be
			at := br[rng.Intn(len(br))]
			s.seq, s.preds = at.seq+1, []int{at.v}
			branches[s.chain] = append(br, tip{v: s.v, seq: s.seq})
		case roll < 0.20: // connectivity violation: a seq skipped, or no parent cited
			bi := rng.Intn(len(br))
			s.seq = br[bi].seq + 1 + uint64(rng.Intn(2))
			if s.seq == br[bi].seq+2 || rng.Intn(2) == 0 {
				s.preds = []int{br[bi].v}
			}
			br[bi] = tip{v: s.v, seq: s.seq}
		default:
			bi := rng.Intn(len(br))
			s.seq, s.preds = br[bi].seq+1, []int{br[bi].v}
			br[bi] = tip{v: s.v, seq: s.seq}
		}
		for cand := 0; cand < s.v; cand++ {
			if rng.Float64() < 4.0/float64(size) {
				s.preds = appendNew(s.preds, cand)
			}
		}
		rng.Shuffle(len(s.preds), func(i, j int) { s.preds[i], s.preds[j] = s.preds[j], s.preds[i] })
		specs = append(specs, s)
	}
	return specs
}

// topoShuffle returns the specs in a random topological order: seeded
// roots first (the caller's contract), then any vertex whose predecessors
// are all out.
func topoShuffle(rng *rand.Rand, specs []spec) []spec {
	out := make([]spec, 0, len(specs))
	placed := make(map[int]bool, len(specs))
	var rest []spec
	for _, s := range specs {
		if s.seeded {
			out, placed[s.v] = append(out, s), true
		} else {
			rest = append(rest, s)
		}
	}
	for len(rest) > 0 {
		var ready []int
		for i, s := range rest {
			if !slices.ContainsFunc(s.preds, func(p int) bool { return !placed[p] }) {
				ready = append(ready, i)
			}
		}
		i := ready[rng.Intn(len(ready))]
		out, placed[rest[i].v] = append(out, rest[i]), true
		rest = slices.Delete(rest, i, i+1)
	}
	return out
}

// appendNew appends p to preds unless preds names it already: a spec cites
// each predecessor once, as InsertChained requires of its caller.
func appendNew(preds []int, p int) []int {
	if slices.Contains(preds, p) {
		return preds
	}
	return append(preds, p)
}

// insertBoth inserts s into the row graph and the reference and requires
// the same verdict.
func insertBoth(t *testing.T, g *DAG[int], r *refDAG, s spec) {
	t.Helper()
	for i, p := range s.preds {
		if slices.Contains(s.preds[:i], p) {
			t.Fatalf("spec %+v cites %d twice: InsertChained's caller names each predecessor once", s, p)
		}
	}
	var got error
	switch {
	case s.seeded:
		got = g.InsertSeeded(s.v, s.chain, s.seq, s.below)
	default:
		got = g.InsertChained(s.v, s.preds, s.chain, s.seq)
	}
	want := r.insert(s.v, s.preds, s.chain >= 0, s.seeded, s.chain, s.seq, s.below)
	if !errors.Is(got, want) {
		t.Fatalf("insert %+v: got %v, reference %v", s, got, want)
	}
}

func build(t *testing.T, specs []spec) (*DAG[int], *refDAG) {
	t.Helper()
	g, r := New[int](), newRef()
	for _, s := range specs {
		insertBoth(t, g, r, s)
	}
	return g, r
}

// predKeys is v's predecessors in insertion order, as keys.
func predKeys[K comparable](g *DAG[K], v K) []K {
	if n, ok := g.find(v); ok {
		return g.keys(g.predsOf(n))
	}
	return nil
}

// requireSame compares every query the package exports between the row
// graph and the reference, edge lists and orders exactly.
func requireSame(t *testing.T, g *DAG[int], r *refDAG, chains int) {
	t.Helper()
	if !slices.Equal(g.Order(), r.order) || g.Len() != len(r.order) {
		t.Fatalf("order %v, reference %v", g.Order(), r.order)
	}
	probes := append(slices.Clone(r.order), -7) // and one key that is no vertex
	for _, v := range probes {
		at, ok := g.Index(v)
		if want, has := r.index[v]; ok != has || ok && (at != want || g.At(at) != v) || g.Contains(v) != has {
			t.Fatalf("Index(%d) = %d, %v; reference %d, %v", v, at, ok, want, has)
		}
		if ok {
			var preds []int
			for _, p := range g.PredsAt(at) {
				preds = append(preds, g.At(int(p)))
			}
			if !refSameSet(preds, r.preds[v]) {
				t.Fatalf("PredsAt(%d) of vertex %d = %v, reference %v", at, v, preds, r.preds[v])
			}
		}
		if got := predKeys(g, v); !slices.Equal(got, r.preds[v]) {
			t.Fatalf("vertex %d: preds %v, reference %v", v, got, r.preds[v])
		}
		if ok && !slices.Equal(g.Summary(at), r.summary[v]) {
			t.Fatalf("Summary(%d) of vertex %d = %v, reference %v", at, v, g.Summary(at), r.summary[v])
		}
		anc, want := g.Ancestry(v), r.ancestry(v)
		if len(anc) != len(want) || slices.ContainsFunc(anc, func(a int) bool { return !want[a] }) {
			t.Fatalf("Ancestry(%d) = %v, reference %v", v, anc, want)
		}
		for _, u := range probes {
			if got, want := g.Reaches(u, v), r.reaches(u, v); got != want {
				t.Fatalf("Reaches(%d, %d) = %v, reference %v", u, v, got, want)
			}
		}
	}
	for c := -1; c <= chains; c++ {
		if g.ChainForked(c) != r.forked[c] {
			t.Fatalf("ChainForked(%d) = %v, reference %v", c, g.ChainForked(c), r.forked[c])
		}
		var want []int // the chain's vertices by seq, then insertion
		for at, v := range r.order {
			if pos, ok := r.chains[v]; ok && pos.chain == c {
				want = append(want, at)
				first, taken := g.Slot(c, pos.seq)
				if !taken || g.At(first) != r.slots[pos] {
					t.Fatalf("Slot(%d, %d) = %d, %v; reference vertex %d", c, pos.seq, first, taken, r.slots[pos])
				}
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return r.chains[r.order[want[i]]].seq < r.chains[r.order[want[j]]].seq })
		if got := g.Chain(c); !slices.Equal(got, want) {
			t.Fatalf("Chain(%d) = %v, reference %v", c, got, want)
		}
	}
}

// TestRowsMatchMapReference is the wall for the row layout: random DAGs
// with forks, connectivity violations, seeded roots and unannotated
// vertices, inserted in random topological orders with duplicate,
// mismatching and dangling inserts mixed in, must answer every exported
// query exactly as the map-per-property reference does — Union and Leq
// included.
func TestRowsMatchMapReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			chains := 1 + rng.Intn(5)
			specs := randomSpecs(rng, chains, 15+rng.Intn(45))
			order := topoShuffle(rng, specs)

			g, r := New[int](), newRef()
			for i, s := range order {
				insertBoth(t, g, r, s)
				// Now and then: the same vertex again (a no-op whatever the
				// order of its edge list), with another edge set (refused),
				// and a vertex citing one that is not there (refused,
				// nothing changes).
				again := order[rng.Intn(i+1)]
				again.seeded, again.below = false, nil // InsertSeeded takes no edge list
				switch rng.Intn(4) {
				case 0:
					again.preds = slices.Clone(again.preds)
					slices.Reverse(again.preds)
					insertBoth(t, g, r, again)
				case 1:
					again.preds = appendNew(slices.Clone(again.preds), order[rng.Intn(i+1)].v)
					insertBoth(t, g, r, again)
				case 2:
					insertBoth(t, g, r, spec{v: 1000 + i, preds: []int{again.v, 2000 + i}, chain: again.chain, seq: again.seq})
				}
			}
			requireSame(t, g, r, chains)

			// Three more graphs: prefixes of two other topological orders
			// (sub-DAGs of g), and a variant that disagrees with g — one
			// vertex with an edge more or less, one without its annotation.
			// Leq and Union over all of them, in both directions.
			a, b, c := topoShuffle(rng, specs), topoShuffle(rng, specs), slices.Clone(order)
			edit, strip := &c[rng.Intn(len(c))], &c[rng.Intn(len(c))]
			if len(edit.preds) > 0 && rng.Intn(2) == 0 {
				edit.preds = edit.preds[1:]
			} else if first := c[0].v; first != edit.v && !edit.seeded {
				edit.preds = appendNew(slices.Clone(edit.preds), first)
			}
			if !strip.seeded {
				strip.chain = -1
			}
			ga, ra := build(t, a[:rng.Intn(len(a)+1)])
			gb, rb := build(t, b[:rng.Intn(len(b)+1)])
			gc, rc := build(t, c[:len(c)-rng.Intn(3)])
			gs, rs := []*DAG[int]{ga, gb, gc, g}, []*refDAG{ra, rb, rc, r}
			for i := range gs {
				for j := range gs {
					if got, want := gs[i].Leq(gs[j]), rs[i].leq(rs[j]); got != want {
						t.Fatalf("Leq(%d, %d) = %v, reference %v", i, j, got, want)
					}
					gu, err := gs[i].Union(gs[j])
					ru, rerr := rs[i].union(rs[j])
					if !errors.Is(err, rerr) {
						t.Fatalf("Union(%d, %d): %v, reference %v", i, j, err, rerr)
					}
					if err == nil {
						requireSame(t, gu, ru, chains)
					}
				}
			}
		})
	}
}

// TestUnionRefusesDisagreeingEdges: a shared vertex whose two edge sets
// differ — also when one side merely lacks the other's predecessor.
func TestUnionRefusesDisagreeingEdges(t *testing.T) {
	mk := func(edges map[int][]int, order ...int) (*DAG[int], *refDAG) {
		var specs []spec
		for _, v := range order {
			specs = append(specs, spec{v: v, preds: edges[v], chain: -1})
		}
		return build(t, specs)
	}
	ga, ra := mk(map[int][]int{3: {1}}, 1, 3)
	gb, rb := mk(map[int][]int{3: {1, 2}}, 1, 2, 3)
	for _, swap := range []bool{false, true} {
		if swap {
			ga, ra, gb, rb = gb, rb, ga, ra
		}
		_, err := ga.Union(gb)
		_, rerr := ra.union(rb)
		if !errors.Is(err, ErrEdgeMismatch) || !errors.Is(rerr, ErrEdgeMismatch) {
			t.Fatalf("Union: %v, reference %v; want edge mismatch from both", err, rerr)
		}
	}
}
