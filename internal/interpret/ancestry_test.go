package interpret

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/protocols/courier"
	"blockdag/internal/types"
)

// buildSparseChain builds the scenario "a reference includes its ancestry"
// exists for — the blocks gossip's parent-plus-tips rule produces:
//
//	s0: A0 ← A1 ← A2 (a chain of three blocks, requests on each)
//	s1: B0, then B1 referencing ONLY A2 (the tip) + parent B0.
//
// B1 receives the messages of A0 and A1 as well as A2's: referencing A2
// includes its ancestry.
func buildSparseChain(t *testing.T, h *dagtest.Harness) (a0, a1, a2, b0, b1 *block.Block) {
	t.Helper()
	a0 = h.Genesis(0, block.Request{Label: "m0", Data: courier.EncodeRequest(1, []byte("zero"))})
	a1 = h.Next(0, nil, block.Request{Label: "m1", Data: courier.EncodeRequest(1, []byte("one"))})
	a2 = h.Next(0, nil, block.Request{Label: "m2", Data: courier.EncodeRequest(1, []byte("two"))})
	b0 = h.Genesis(1)
	b1 = h.Next(1, []block.Ref{a2.Ref()})
	return
}

func TestReferenceDeliversAncestry(t *testing.T) {
	h := dagtest.NewHarness(2)
	onInd, inds := collectInds()
	it := New(courier.Protocol{}, 2, 0, onInd)
	buildSparseChain(t, h)
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, ind := range *inds {
		if ind.Server != 1 {
			continue
		}
		_, data := courierIndication(t, ind.Value)
		got = append(got, string(data))
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d messages %v, want all 3 from the ancestry", len(got), got)
	}
}

// TestAncestryNoDuplication: consuming an ancestor once moves the
// watermark; later blocks referencing overlapping ancestry do not deliver
// it again.
func TestAncestryNoDuplication(t *testing.T) {
	h := dagtest.NewHarness(2)
	onInd, inds := collectInds()
	it := New(courier.Protocol{}, 2, 0, onInd)
	a0, _, a2, _, _ := buildSparseChain(t, h)
	_ = a0
	// s1 keeps extending, re-referencing old s0 blocks directly (a
	// byzantine-ish redundant reference) — watermark must suppress
	// re-delivery.
	h.Next(1, []block.Ref{a2.Ref(), a0.Ref()})
	h.Next(1, []block.Ref{a0.Ref()})
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, ind := range *inds {
		if ind.Server == 1 {
			count++
		}
	}
	if count != 3 {
		t.Fatalf("delivered %d messages, want exactly 3 (no duplication)", count)
	}
}

// TestSparseOrderIndependence: Lemma 4.2 on a sparse, irregular DAG.
func TestSparseOrderIndependence(t *testing.T) {
	h := dagtest.NewHarness(3)
	// Build a sparse, irregular DAG with requests sprinkled in.
	h.Genesis(0, block.Request{Label: "x", Data: []byte("vx")})
	h.Genesis(1)
	h.Genesis(2)
	h.Next(0, nil)
	h.Next(1, []block.Ref{h.Tip(0)}, block.Request{Label: "y", Data: []byte("vy")})
	h.Next(2, []block.Ref{h.Tip(1)})
	h.Next(0, []block.Ref{h.Tip(2)})
	h.Next(1, []block.Ref{h.Tip(0)})
	h.Next(2, []block.Ref{h.Tip(1)})

	reference := New(brb.Protocol{}, 3, 0, nil)
	if err := reference.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		other := New(brb.Protocol{}, 3, 0, nil)
		for _, b := range randomTopoOrder(h.DAG, rng) {
			if err := other.AddBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range h.DAG.Blocks() {
			for _, label := range []types.Label{"x", "y"} {
				m1 := reference.OutMessages(b.Ref(), label)
				m2 := other.OutMessages(b.Ref(), label)
				if len(m1) != len(m2) {
					t.Fatalf("trial %d: out buffers differ at %v", trial, b.Ref())
				}
				d1, ok1 := reference.StateDigest(b.Ref(), label)
				d2, ok2 := other.StateDigest(b.Ref(), label)
				if ok1 != ok2 || string(d1) != string(d2) {
					t.Fatalf("trial %d: digests differ at %v", trial, b.Ref())
				}
			}
		}
	}
}

// TestSparseEndToEndBRB: blocks that cite one tip each, BRB still delivers
// exactly once everywhere. (internal/core exercises the same at system
// level, with gossip choosing the references.)
func TestSparseEndToEndBRB(t *testing.T) {
	h := dagtest.NewHarness(4)
	onInd, inds := collectInds()
	it := New(brb.Protocol{}, 4, 1, onInd)
	h.Round(map[int][]block.Request{0: {{Label: "ℓ", Data: []byte("42")}}})
	// Sparse rounds: each server references only server (i+1)%4's tip.
	for r := 0; r < 12; r++ {
		tips := make([]block.Ref, 4)
		for i := 0; i < 4; i++ {
			tips[i] = h.Tip(i)
		}
		for i := 0; i < 4; i++ {
			h.Next(i, []block.Ref{tips[(i+1)%4]})
		}
	}
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	perServer := make(map[int]int)
	for _, ind := range *inds {
		if string(ind.Value) != "42" || ind.Label != "ℓ" {
			t.Fatalf("unexpected indication %+v", ind)
		}
		perServer[int(ind.Server)]++
	}
	for i := 0; i < 4; i++ {
		if perServer[i] != 1 {
			t.Fatalf("server %d delivered %d times: %v", i, perServer[i], perServer)
		}
	}
}

// explicitRuleDAG grows a DAG the way Algorithm 1 is written, and the way
// every block journaled before the parent-plus-tips rule was built: blocks
// reach each server in a random order that respects the DAG, and a server's
// next block cites its parent and every block it inserted since, each
// exactly once. Every fourth block carries a BRB request.
func explicitRuleDAG(rng *rand.Rand, n, steps int) (*dagtest.Harness, []types.Label) {
	h := dagtest.NewHarness(n)
	var labels []types.Label
	var all []*block.Block
	has := make([]map[block.Ref]bool, n)
	for i := range has {
		has[i] = make(map[block.Ref]bool)
	}
	for step := 0; step < steps; step++ {
		s := rng.Intn(n)
		var inserted []block.Ref
		for _, b := range all { // a topological order, so closure is preserved
			arrives := !has[s][b.Ref()] && rng.Intn(3) > 0
			for _, p := range b.Preds {
				arrives = arrives && has[s][p]
			}
			if arrives {
				has[s][b.Ref()] = true
				inserted = append(inserted, b.Ref())
			}
		}
		var reqs []block.Request
		if step%4 == 0 {
			labels = append(labels, types.Label(fmt.Sprintf("old/%d", step)))
			reqs = append(reqs, block.Request{Label: labels[len(labels)-1], Data: []byte{byte(step)}})
		}
		var b *block.Block
		if len(h.DAG.ByBuilder(types.ServerID(s))) == 0 {
			b = h.GenesisWithPreds(s, inserted, reqs...)
		} else {
			b = h.Next(s, inserted, reqs...)
		}
		has[s][b.Ref()] = true
		all = append(all, b)
	}
	return h, labels
}

// sourcesByBlock returns, by block, the blocks it read (its sources, Algorithm
// 2 lines 7–9), from one replay of everything it interpreted: a replay keeps
// every state, it itself only those some chain has not read.
func sourcesByBlock(t *testing.T, it *Interpreter) map[block.Ref][]block.Ref {
	t.Helper()
	sc, err := it.replay(int32(len(it.states)-1), nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := func(row int32) block.Ref {
		b, err := sc.rows.ReadRow(int(row))
		if err != nil {
			t.Fatal(err)
		}
		return b.Ref()
	}
	read := make(map[block.Ref][]block.Ref, len(sc.states))
	for _, st := range sc.states {
		sources, _ := sc.newAncestry(st)
		for _, s := range sources {
			read[ref(st.num)] = append(read[ref(st.num)], ref(s.num))
		}
	}
	return read
}

// TestExplicitRuleBlocksReadTheirPredecessors: in a DAG built by the rule
// the paper states — cite every block you insert, once — the ancestry a
// block adds to its chain is its predecessor list, so such a block reads
// exactly the out-buffers Algorithm 2 lines 7–9 name. Blocks journaled
// before references included their ancestry therefore interpret as they
// did when they were written.
func TestExplicitRuleBlocksReadTheirPredecessors(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		h, _ := explicitRuleDAG(rand.New(rand.NewSource(seed)), 4, 120)
		it := New(brb.Protocol{}, 4, 1, nil)
		if err := it.InterpretDAG(h.DAG); err != nil {
			t.Fatal(err)
		}
		skipped := 0
		read := sourcesByBlock(t, it)
		for b := range h.DAG.All() {
			sources := read[b.Ref()]
			preds := slices.Clone(b.Preds)
			for _, refs := range [][]block.Ref{sources, preds} {
				slices.SortFunc(refs, func(a, b block.Ref) int { return bytes.Compare(a[:], b[:]) })
			}
			if !slices.Equal(sources, preds) {
				t.Fatalf("seed %d: block %v cites %d blocks and reads %d", seed, b.Ref(), len(preds), len(sources))
			}
			for _, p := range preds {
				// The generator must cover what the tip rule leaves out: a
				// predecessor that another predecessor already reaches.
				for _, q := range preds {
					if p != q && h.DAG.Reaches(p, q) {
						skipped++
					}
				}
			}
		}
		if skipped == 0 {
			t.Fatalf("seed %d: no block cites a block one of its other predecessors reaches", seed)
		}
	}
}

// TestNewBlockBehindSkippedFork pins the one place where reading an
// ancestry differs from reading predecessors. s0 equivocates at seq 1; s1
// reads branch e1, and then cites only the other branch, e1', whose sequence
// number its chain has already consumed: e1' is skipped, but s2's block d0
// is reachable through nothing else and must be read there and then — and
// not a second time when s1 later cites d0 itself.
func TestNewBlockBehindSkippedFork(t *testing.T) {
	h := dagtest.NewHarness(3)
	e0 := h.Genesis(0)
	h.Genesis(1)
	d0 := h.Genesis(2, block.Request{Label: "m", Data: courier.EncodeRequest(1, []byte("behind the fork"))})
	e1 := h.Next(0, nil, block.Request{Label: "e", Data: courier.EncodeRequest(1, []byte("branch"))})
	e1f := h.Seal(0, 1, []block.Ref{e0.Ref(), d0.Ref()},
		block.Request{Label: "e", Data: courier.EncodeRequest(1, []byte("other branch"))})
	h.Insert(e1f)
	h.Next(1, []block.Ref{e1.Ref()})
	c2 := h.Next(1, []block.Ref{e1f.Ref()})
	h.Next(1, []block.Ref{d0.Ref(), h.Next(2, nil).Ref()})

	for trial := int64(0); trial < 6; trial++ {
		onInd, inds := collectInds()
		it := New(courier.Protocol{}, 3, 0, onInd)
		for _, b := range randomTopoOrder(h.DAG, rand.New(rand.NewSource(trial))) {
			if err := it.AddBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		var got []string
		for _, ind := range *inds {
			_, data := courierIndication(t, ind.Value)
			if ind.Server == 1 && ind.Label == "m" && ind.Block != c2.Ref() {
				t.Fatalf("trial %d: d0 read at %v, want at the block that brought it in, %v", trial, ind.Block, c2.Ref())
			}
			got = append(got, fmt.Sprintf("%s:%s", ind.Label, data))
		}
		slices.Sort(got)
		// The duplicate-seq branch of the equivocator is dropped; the
		// correct server's block behind it is read exactly once.
		if want := []string{"e:branch", "m:behind the fork"}; !slices.Equal(got, want) {
			t.Fatalf("trial %d: s1 indicated %v, want %v", trial, got, want)
		}
	}
}

// TestCorrectBlocksReadOnceUnderForks is the property behind Lemma 4.3 on
// forked DAGs: every chain of a correct builder reads every block of a
// correct builder in its ancestry exactly once, at the first chain block
// that has it in its ancestry — whatever an equivocator's branches do to
// the paths that lead there, and whatever order blocks are interpreted in.
func TestCorrectBlocksReadOnceUnderForks(t *testing.T) {
	const n = 4
	behindFork := 0
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d, _ := buildDeepForkedDAG(rng, n, 150) // builder 0 equivocates
		it := New(brb.Protocol{}, n, 1, nil)
		for _, b := range randomTopoOrder(d, rng) {
			if err := it.AddBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		read := sourcesByBlock(t, it)
		for reader := types.ServerID(1); reader < n; reader++ {
			readAt := make(map[block.Ref]block.Ref)
			for _, c := range d.ByBuilder(reader) { // ascending seq: the chain
				skipped := make(map[block.Ref]bool) // cited, not read: duplicates of a consumed seq
				for _, p := range c.Preds {
					skipped[p] = true
				}
				for _, x := range read[c.Ref()] {
					delete(skipped, x)
					if xb, _ := d.Get(x); xb.Builder == 0 {
						continue
					}
					if at, twice := readAt[x]; twice {
						t.Fatalf("seed %d: s%d reads %v at %v and again at %v", seed, reader, x, at, c.Ref())
					}
					readAt[x] = c.Ref()
				}
				for x := range d.All() {
					if x.Builder == 0 || x.Ref() == c.Ref() || !d.Reaches(x.Ref(), c.Ref()) {
						continue
					}
					if _, read := readAt[x.Ref()]; !read {
						t.Fatalf("seed %d: %v is below %v and s%d never read it", seed, x.Ref(), c.Ref(), reader)
					}
					if readAt[x.Ref()] == c.Ref() && !slices.ContainsFunc(c.Preds, func(p block.Ref) bool {
						return !skipped[p] && (x.Ref() == p || d.Reaches(x.Ref(), p))
					}) {
						behindFork++
					}
				}
			}
		}
	}
	if behindFork == 0 {
		t.Fatal("no correct block was first reached only through a skipped fork block")
	}
}
