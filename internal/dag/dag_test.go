package dag

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/metrics"
	"blockdag/internal/types"
)

func fixture(t *testing.T, n int) (*crypto.Roster, []*crypto.Signer) {
	t.Helper()
	roster, signers, err := crypto.LocalRoster(n)
	if err != nil {
		t.Fatal(err)
	}
	return roster, signers
}

func sealed(t *testing.T, signer *crypto.Signer, seq uint64, preds []block.Ref, reqs []block.Request) *block.Block {
	t.Helper()
	b := block.New(signer.ID(), seq, preds, reqs)
	if err := b.Seal(signer); err != nil {
		t.Fatal(err)
	}
	return b
}

func mustInsert(t *testing.T, d *DAG, blocks ...*block.Block) {
	t.Helper()
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatalf("Insert(%v): %v", b.Ref(), err)
		}
	}
}

// TestFigure2 reconstructs the paper's Figure 2: blocks B1 = (s1, k=0),
// B2 = (s2, k=0), B3 = (s1, k=1, preds=[B1, B2]) with parent(B3) = B1.
func TestFigure2(t *testing.T) {
	roster, signers := fixture(t, 2)
	d := New(roster)
	b1 := sealed(t, signers[0], 0, nil, nil)
	b2 := sealed(t, signers[1], 0, nil, nil)
	b3 := sealed(t, signers[0], 1, []block.Ref{b1.Ref(), b2.Ref()}, nil)
	mustInsert(t, d, b1, b2, b3)

	if d.Len() != 3 {
		t.Fatalf("Len = %d, want 3", d.Len())
	}
	if !d.Reaches(b1.Ref(), b3.Ref()) || !d.Reaches(b2.Ref(), b3.Ref()) {
		t.Fatal("edges B1 ⇀ B3 and B2 ⇀ B3 missing")
	}
	if d.Reaches(b1.Ref(), b2.Ref()) || d.Reaches(b3.Ref(), b1.Ref()) {
		t.Fatal("spurious reachability")
	}
	got, ok := d.Get(b3.Ref())
	if !ok || got.Builder != b1.Builder || got.Seq != b1.Seq+1 {
		t.Fatal("parent(B3) != B1")
	}
	if d.Head(0).Forked || d.Head(1).Forked {
		t.Fatal("unexpected equivocation in Figure 2 DAG")
	}
}

// TestFigure3 reconstructs Figure 3: ŝ1 equivocates by building B4 with
// the same parent B1 as B3. All four blocks are valid, the equivocation
// is detected, and the forked successors remain split: no later ŝ1 block
// can join B3 and B4 (it would have two parents).
func TestFigure3(t *testing.T) {
	roster, signers := fixture(t, 2)
	d := New(roster)
	forks := watchForks(d)
	b1 := sealed(t, signers[0], 0, nil, nil)
	b2 := sealed(t, signers[1], 0, nil, nil)
	b3 := sealed(t, signers[0], 1, []block.Ref{b1.Ref(), b2.Ref()}, nil)
	b4 := sealed(t, signers[0], 1, []block.Ref{b1.Ref(), b2.Ref()}, []block.Request{{Label: "x", Data: []byte("diverge")}})
	mustInsert(t, d, b1, b2, b3, b4)

	if b3.Ref() == b4.Ref() {
		t.Fatal("equivocating blocks collide")
	}
	if len(*forks) != 1 || (*forks)[0] != [2]*block.Block{b3, b4} {
		t.Fatalf("forks = %v, want exactly one: (B3, B4)", *forks)
	}
	if !d.Head(0).Forked || d.Head(1).Forked {
		t.Fatal("equivocation attributed to the wrong chain")
	}

	// A ŝ1 block at seq 2 referencing both forks has two parents: invalid.
	join := sealed(t, signers[0], 2, []block.Ref{b3.Ref(), b4.Ref()}, nil)
	if err := d.Insert(join); !errors.Is(err, ErrParentRule) {
		t.Fatalf("joining forks: Insert = %v, want ErrParentRule", err)
	}

	// Extending exactly one fork is fine: histories stay linear per fork.
	extend := sealed(t, signers[0], 2, []block.Ref{b3.Ref()}, nil)
	if err := d.Insert(extend); err != nil {
		t.Fatalf("extending one fork: %v", err)
	}
}

func TestValidateRejectsBadSignature(t *testing.T) {
	roster, signers := fixture(t, 2)
	d := New(roster)
	b := block.New(0, 0, nil, nil)
	// Seal with the right signer, then corrupt the signature.
	if err := b.Seal(signers[0]); err != nil {
		t.Fatal(err)
	}
	b.Sig = append([]byte(nil), b.Sig...) // a sealed block's Sig is its frame's: copy, then write
	b.Sig[0] ^= 0xff
	if err := d.Insert(b); !errors.Is(err, ErrBadSignature) {
		t.Fatalf("Insert = %v, want ErrBadSignature", err)
	}
}

func TestValidateRejectsUnknownBuilder(t *testing.T) {
	roster, _ := fixture(t, 2)
	_, outsiders := fixture(t, 5) // larger roster: server 4 is outside
	d := New(roster)
	b := sealed(t, outsiders[4], 0, nil, nil)
	if err := d.Insert(b); !errors.Is(err, ErrBuilderUnknown) {
		t.Fatalf("Insert = %v, want ErrBuilderUnknown", err)
	}
}

func TestInsertRequiresPreds(t *testing.T) {
	roster, signers := fixture(t, 2)
	d := New(roster)
	g := sealed(t, signers[0], 0, nil, nil)
	child := sealed(t, signers[0], 1, []block.Ref{g.Ref()}, nil)
	if err := d.Insert(child); !errors.Is(err, ErrMissingPreds) {
		t.Fatalf("Insert = %v, want ErrMissingPreds", err)
	}
	if missing := d.MissingPreds(child); len(missing) != 1 || missing[0] != g.Ref() {
		t.Fatalf("MissingPreds = %v", missing)
	}
	mustInsert(t, d, g, child)
}

func TestParentRule(t *testing.T) {
	roster, signers := fixture(t, 3)
	d := New(roster)
	g0 := sealed(t, signers[0], 0, nil, nil)
	g1 := sealed(t, signers[1], 0, nil, nil)
	mustInsert(t, d, g0, g1)

	// Non-genesis with no parent: only references another server.
	orphan := sealed(t, signers[0], 1, []block.Ref{g1.Ref()}, nil)
	if err := d.Insert(orphan); !errors.Is(err, ErrParentRule) {
		t.Fatalf("no parent: Insert = %v, want ErrParentRule", err)
	}

	// Sequence gap: seq 2 directly on a seq-0 parent.
	gap := sealed(t, signers[0], 2, []block.Ref{g0.Ref()}, nil)
	if err := d.Insert(gap); !errors.Is(err, ErrParentRule) {
		t.Fatalf("seq gap: Insert = %v, want ErrParentRule", err)
	}

	// A parent cited twice counts twice: two parents. (No such block gets
	// this far from a peer: block.Decode refuses a repeated predecessor.)
	dup := sealed(t, signers[0], 1, []block.Ref{g0.Ref(), g0.Ref()}, nil)
	if err := d.Insert(dup); !errors.Is(err, ErrParentRule) {
		t.Fatalf("duplicated parent ref: Insert = %v, want ErrParentRule", err)
	}
}

func TestReinsertIsNoOp(t *testing.T) {
	roster, signers := fixture(t, 2)
	d := New(roster)
	b := sealed(t, signers[0], 0, nil, nil)
	mustInsert(t, d, b, b, b)
	if d.Len() != 1 {
		t.Fatalf("Len = %d after re-inserts, want 1", d.Len())
	}
}

// chainOf seals builder signer's chain of k blocks, each on its parent.
func chainOf(t *testing.T, signer *crypto.Signer, k int) []*block.Block {
	t.Helper()
	var chain []*block.Block
	var preds []block.Ref
	for seq := range uint64(k) {
		b := sealed(t, signer, seq, preds, nil)
		chain = append(chain, b)
		preds = []block.Ref{b.Ref()}
	}
	return chain
}

// TestChainHeads: a head is the slot above the chain's highest row —
// stand-ins counted, so a seeded DAG starts at its base — and a second block
// in a slot marks the chain forked without moving it.
func TestChainHeads(t *testing.T) {
	roster, signers := fixture(t, 3)
	zero := make([]Head, 3)
	if got := New(roster).Heads(); !slices.Equal(got, zero) {
		t.Fatalf("empty DAG heads = %v", got)
	}
	chain := chainOf(t, signers[0], 6)
	d := New(roster)
	mustInsert(t, d, chain[:4]...)
	mustInsert(t, d, sealed(t, signers[1], 0, nil, nil))
	if got, want := d.Heads(), []Head{{Next: 4}, {Next: 1}, {}}; !slices.Equal(got, want) {
		t.Fatalf("heads = %v, want %v", got, want)
	}
	if h := d.Head(7); h != (Head{}) {
		t.Fatalf("head of a builder outside the roster = %v", h)
	}
	scraped := map[string]float64{}
	d.Collect(func(m metrics.Metric) {
		if m.Name == "dag_chain_next_seq" {
			scraped[m.Labels[0][1]] = m.Value
		}
	})
	if want := map[string]float64{"0": 4, "1": 1, "2": 0}; !maps.Equal(scraped, want) {
		t.Fatalf("scraped heads %v, want %v", scraped, want)
	}

	variant := sealed(t, signers[0], 2, []block.Ref{chain[1].Ref()}, []block.Request{{Label: "x", Data: []byte("fork")}})
	mustInsert(t, d, variant)
	if h := d.Head(0); h != (Head{Next: 4, Forked: true}) {
		t.Fatalf("head after a fork at seq 2 = %v, want {4 true}", h)
	}

	seeded := New(roster)
	if err := seeded.SeedBase([]Base{{Builder: 0, Seq: 4, Ref: chain[4].Ref()}, {Builder: 2, Seq: 1, Ref: block.Ref{2}}}); err != nil {
		t.Fatal(err)
	}
	if got, want := seeded.Heads(), []Head{{Next: 5}, {}, {Next: 2}}; !slices.Equal(got, want) {
		t.Fatalf("seeded heads = %v, want %v", got, want)
	}
	mustInsert(t, seeded, chain[5])
	if h := seeded.Head(0); h != (Head{Next: 6}) {
		t.Fatalf("head above the base = %v, want {6 false}", h)
	}
	if err := New(roster).SeedBase([]Base{{Builder: 1, Seq: maxSeq, Ref: block.Ref{1}}}); err == nil {
		t.Fatal("a stand-in past any chain was seeded")
	}
}

// TestHeadsFromAnyGoroutine: a reader on another goroutine watches the heads
// while the owner inserts — race-free under -race, each head only rising,
// and the last read, after the owner stops, the owner's own.
func TestHeadsFromAnyGoroutine(t *testing.T) {
	roster, signers := fixture(t, 2)
	chains := [][]*block.Block{chainOf(t, signers[0], 200), chainOf(t, signers[1], 200)}
	d := New(roster)
	stop, failed := make(chan struct{}), make(chan error, 1)
	go func() {
		defer close(failed)
		last := make([]Head, 2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for id, h := range d.Heads() {
				if h.Next < last[id].Next || h.Forked {
					failed <- fmt.Errorf("builder %d: head %v after %v", id, h, last[id])
					return
				}
				last[id] = h
			}
		}
	}()
	for i := range 200 {
		mustInsert(t, d, chains[0][i], chains[1][i])
	}
	close(stop)
	if err := <-failed; err != nil {
		t.Fatal(err)
	}
	if got, want := d.Heads(), []Head{{Next: 200}, {Next: 200}}; !slices.Equal(got, want) {
		t.Fatalf("heads = %v, want %v", got, want)
	}
}

// TestJointDAG checks Lemma A.7: the union of two correct servers' block
// DAGs, obtained by merging, is a block DAG, and both inputs are ⩽ it.
func TestJointDAG(t *testing.T) {
	roster, signers := fixture(t, 3)

	// Shared genesis layer.
	g0 := sealed(t, signers[0], 0, nil, nil)
	g1 := sealed(t, signers[1], 0, nil, nil)
	g2 := sealed(t, signers[2], 0, nil, nil)

	// Server 0's view: its own chain on top of g0, g1.
	d0 := New(roster)
	mustInsert(t, d0, g0, g1)
	a1 := sealed(t, signers[0], 1, []block.Ref{g0.Ref(), g1.Ref()}, nil)
	mustInsert(t, d0, a1)

	// Server 1's view: its own chain on top of g1, g2.
	d1 := New(roster)
	mustInsert(t, d1, g1, g2)
	b1 := sealed(t, signers[1], 1, []block.Ref{g1.Ref(), g2.Ref()}, nil)
	mustInsert(t, d1, b1)

	joint := New(roster)
	if err := joint.Merge(d0); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if err := joint.Merge(d1); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if joint.Len() != 5 {
		t.Fatalf("joint Len = %d, want 5", joint.Len())
	}
	if !d0.Leq(joint) || !d1.Leq(joint) {
		t.Fatal("inputs not ⩽ joint DAG")
	}
	// The joint DAG is itself a valid block DAG: re-validate every block.
	check := New(roster)
	for _, b := range joint.Blocks() {
		if err := check.Insert(b); err != nil {
			t.Fatalf("joint DAG block %v invalid: %v", b.Ref(), err)
		}
	}
}

func TestByBuilder(t *testing.T) {
	roster, signers := fixture(t, 2)
	d := New(roster)
	g := sealed(t, signers[0], 0, nil, nil)
	c1 := sealed(t, signers[0], 1, []block.Ref{g.Ref()}, nil)
	c2 := sealed(t, signers[0], 2, []block.Ref{c1.Ref()}, nil)
	other := sealed(t, signers[1], 0, nil, nil)
	mustInsert(t, d, g, other, c1, c2)

	chain := d.ByBuilder(0)
	if len(chain) != 3 {
		t.Fatalf("ByBuilder(0) has %d blocks", len(chain))
	}
	for i, b := range chain {
		if b.Seq != uint64(i) {
			t.Fatalf("chain out of order: %v", chain)
		}
	}
	if len(d.ByBuilder(1)) != 1 {
		t.Fatal("ByBuilder(1) wrong")
	}
}

// TestEquivocatingGenesis checks that two genesis blocks from the same
// byzantine server are both valid (Definition 3.3 does not forbid them)
// and are reported as an equivocation at seq 0.
func TestEquivocatingGenesis(t *testing.T) {
	roster, signers := fixture(t, 2)
	d := New(roster)
	forks := watchForks(d)
	ga := sealed(t, signers[0], 0, nil, nil)
	gb := sealed(t, signers[0], 0, nil, []block.Request{{Label: "l", Data: []byte("other")}})
	mustInsert(t, d, ga, gb)
	if len(*forks) != 1 || (*forks)[0] != [2]*block.Block{ga, gb} {
		t.Fatalf("forks = %v", *forks)
	}
}

// TestDecodedBlockValidation exercises the full network path: encode,
// decode, then validate — the order gossip performs on received blocks.
func TestDecodedBlockValidation(t *testing.T) {
	roster, signers := fixture(t, 2)
	d := New(roster)
	g := sealed(t, signers[0], 0, nil, []block.Request{{Label: "pay", Data: []byte{7}}})
	dec, err := block.Decode(g.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(dec); err != nil {
		t.Fatalf("Insert decoded block: %v", err)
	}
	if types.ServerID(0) != dec.Builder {
		t.Fatal("builder mismatch")
	}
}

// TestSeededRowsBehindTheAPI drives a seeded DAG with a forked slot through
// every accessor that used to have a map of its own: stand-ins are
// contained but carry no block, positions count blocks only, a slot is
// proven forked once, and ByBuilder is what a scan of all blocks sorted by
// seq gives — also on a clone.
func TestSeededRowsBehindTheAPI(t *testing.T) {
	roster, signers := fixture(t, 2)
	// Pruned history: builder 0 up to seq 4, builder 1 up to seq 2.
	p0 := sealed(t, signers[0], 4, nil, nil)
	p1 := sealed(t, signers[1], 2, nil, nil)
	base := []Base{{Builder: 1, Seq: 2, Ref: p1.Ref()}, {Builder: 0, Seq: 4, Ref: p0.Ref()}}
	d := New(roster)
	if err := d.SeedBase(append(base, base[0])); err != nil { // a repeated entry is dropped
		t.Fatal(err)
	}
	forks := watchForks(d)
	a5 := sealed(t, signers[0], 5, []block.Ref{p0.Ref(), p1.Ref()}, nil)
	b3 := sealed(t, signers[1], 3, []block.Ref{p1.Ref(), a5.Ref()}, nil)
	a6 := sealed(t, signers[0], 6, []block.Ref{a5.Ref(), b3.Ref()}, nil)
	fork := func(data string) *block.Block {
		return sealed(t, signers[0], 5, []block.Ref{p0.Ref()}, []block.Request{{Label: "l", Data: []byte(data)}})
	}
	a5x, a5y := fork("x"), fork("y")
	live := []*block.Block{a5, b3, a6, a5x, a5y}
	mustInsert(t, d, live...)
	if len(*forks) != 1 || (*forks)[0] != [2]*block.Block{a5, a5x} {
		t.Fatalf("forks = %v, want one: the slot's first two blocks", *forks)
	}

	check := func(d *DAG) {
		t.Helper()
		if d.Len() != len(live) || d.Blocks()[0] != a5 || d.Blocks()[4] != a5y {
			t.Fatalf("Len %d, first block %v: stand-ins must not count", d.Len(), d.Blocks()[0].Ref())
		}
		for _, e := range base {
			if i, ok := d.Index(e.Ref); !ok || i >= len(d.base) || d.base[i] != e || !d.Contains(e.Ref) {
				t.Fatalf("base entry %v not resolved", e)
			}
			if b, ok := d.Get(e.Ref); ok || b != nil {
				t.Fatalf("Get(stand-in) = %v, %v", b, ok)
			}
		}
		if got := d.Base(); len(got) != 2 || got[0] != base[1] || got[1] != base[0] {
			t.Fatalf("Base() = %v, want (builder, seq) order", got)
		}
		for i, b := range live {
			if got, ok := d.Get(b.Ref()); !ok || got != b || d.Blocks()[i] != b {
				t.Fatalf("block %d not at its position", i)
			}
			if i, _ := d.Index(b.Ref()); i < len(d.base) {
				t.Fatalf("block %d resolved as a stand-in", i)
			}
		}
		if refs := d.Refs(); len(refs) != 7 || refs[0] != p1.Ref() || refs[2] != a5.Ref() {
			t.Fatalf("Refs() = %v: stand-ins first, in seeding order", refs)
		}
		for id := types.ServerID(0); id < 2; id++ {
			var want []*block.Block
			for _, b := range d.Blocks() {
				if b.Builder == id {
					want = append(want, b)
				}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].Seq < want[j].Seq })
			if got := d.ByBuilder(id); !slices.Equal(got, want) {
				t.Fatalf("ByBuilder(%v) = %v, want %v", id, dagRefs(got), dagRefs(want))
			}
		}
		if got := d.ByBuilder(0); len(got) != 4 || got[1] != a5x || got[3] != a6 {
			t.Fatalf("ByBuilder(0) = %v: seq order, insertion order within the forked slot", dagRefs(got))
		}
		// What a delta serves, in row order: builder 1's slot column from the
		// horizon on, forked builder 0 whole whatever the horizon says, and
		// no stand-in (rows 0 and 1).
		for _, tc := range []struct {
			next map[types.ServerID]uint64
			want []int32
		}{
			{nil, []int32{2, 3, 4, 5, 6}},
			{map[types.ServerID]uint64{0: 7, 1: 4}, []int32{2, 4, 5, 6}},
			{map[types.ServerID]uint64{0: 7, 1: 3}, []int32{2, 3, 4, 5, 6}},
		} {
			if got := d.RowsBeyond(tc.next); !slices.Equal(got, tc.want) {
				t.Fatalf("RowsBeyond(%v) = %v, want %v", tc.next, got, tc.want)
			}
		}
	}
	check(d)

	// A block whose parent is neither a block nor a stand-in is refused.
	orphan := sealed(t, signers[1], 2, []block.Ref{sealed(t, signers[1], 1, nil, nil).Ref()}, nil)
	if err := d.Insert(orphan); !errors.Is(err, ErrMissingPreds) {
		t.Fatalf("orphan insert: %v", err)
	}
	// A stand-in that is not the parent does not count as one.
	if err := d.Insert(sealed(t, signers[1], 4, []block.Ref{p1.Ref()}, nil)); !errors.Is(err, ErrParentRule) {
		t.Fatalf("block two above its stand-in: %v", err)
	}
}

// watchForks collects the forks d tells its equivocation callback of from
// now on, each as (first, second).
func watchForks(d *DAG) *[][2]*block.Block {
	var forks [][2]*block.Block
	d.SetOnEquivocation(func(first, second *block.Block) {
		forks = append(forks, [2]*block.Block{first, second})
	})
	return &forks
}

func dagRefs(blocks []*block.Block) []block.Ref {
	out := make([]block.Ref, len(blocks))
	for i, b := range blocks {
		out[i] = b.Ref()
	}
	return out
}
