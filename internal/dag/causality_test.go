package dag

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/types"
)

// HappenedBefore is the Lamport happened-before relation the block DAG
// encodes (paper Section 1): a → b iff b's reference chain reaches back to
// a (a ⇀+ b). The tests hold Reaches to it.
func (d *DAG) HappenedBefore(a, b block.Ref) bool { return d.g.Reaches(a, b) }

// Concurrent reports that neither block causally precedes the other —
// the parallelism a DAG admits and a chain forbids.
func (d *DAG) Concurrent(a, b block.Ref) bool {
	return a != b && !d.HappenedBefore(a, b) && !d.HappenedBefore(b, a)
}

// TestHappenedBefore checks the Lamport relation on the Figure 2 DAG:
// B1 → B3 and B2 → B3, while B1 and B2 are concurrent.
func TestHappenedBefore(t *testing.T) {
	roster, signers := fixture(t, 2)
	d := New(roster)
	b1 := sealed(t, signers[0], 0, nil, nil)
	b2 := sealed(t, signers[1], 0, nil, nil)
	b3 := sealed(t, signers[0], 1, []block.Ref{b1.Ref(), b2.Ref()}, nil)
	mustInsert(t, d, b1, b2, b3)

	if !d.HappenedBefore(b1.Ref(), b3.Ref()) || !d.HappenedBefore(b2.Ref(), b3.Ref()) {
		t.Fatal("B1 → B3 / B2 → B3 missing")
	}
	if d.HappenedBefore(b3.Ref(), b1.Ref()) {
		t.Fatal("happened-before is not antisymmetric")
	}
	if !d.Concurrent(b1.Ref(), b2.Ref()) {
		t.Fatal("B1 and B2 should be concurrent")
	}
	if d.Concurrent(b1.Ref(), b3.Ref()) || d.Concurrent(b1.Ref(), b1.Ref()) {
		t.Fatal("Concurrent misreports ordered or identical blocks")
	}
}

// ancestrySet is the index-free oracle: the causal past of ref via the
// graph's BFS (Ancestry does not use the causal summary).
func ancestrySet(d *DAG, ref block.Ref) map[block.Ref]struct{} {
	set := make(map[block.Ref]struct{})
	for _, a := range d.Ancestry(ref) {
		set[a] = struct{}{}
	}
	return set
}

// TestCausalIndexUnderEquivocation builds random DAGs with equivocating
// builders and checks every Reaches/HappenedBefore/Concurrent answer
// against the BFS ancestry oracle.
func TestCausalIndexUnderEquivocation(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4
		roster, signers := fixture(t, n)
		d := New(roster)

		// Per-builder branch tips: (ref, seq) pairs; equivocators carry
		// several.
		type tip struct {
			ref block.Ref
			seq uint64
		}
		branches := make([][]tip, n)
		var refs []block.Ref
		for step := 0; step < 50; step++ {
			bi := rng.Intn(n)
			var seq uint64
			var preds []block.Ref
			// Builder 0 equivocates: a new branch is opened from an
			// existing tip instead of replacing it, so a later
			// extension of the old branch duplicates the slot.
			fork := bi == 0 && len(branches[bi]) > 0 && rng.Float64() < 0.25
			extend := -1
			if len(branches[bi]) > 0 {
				extend = rng.Intn(len(branches[bi]))
				base := branches[bi][extend]
				seq = base.seq + 1
				preds = append(preds, base.ref)
			}
			// Random extra predecessors — but never a second
			// parent-slot block (same builder, seq-1): the parent
			// rule forbids referencing both branches of a fork at
			// the parent position.
			for _, r := range refs {
				if rng.Float64() >= 0.1 {
					continue
				}
				if slices.Contains(preds, r) {
					continue // each predecessor once: the parent is cited already
				}
				if rb, ok := d.Get(r); ok && rb.Builder == signers[bi].ID() &&
					seq > 0 && rb.Seq == seq-1 {
					continue
				}
				preds = append(preds, r)
			}
			b := sealed(t, signers[bi], seq, preds, []block.Request{
				{Label: types.Label(fmt.Sprintf("r/%d", step)), Data: []byte{byte(step)}},
			})
			if d.Contains(b.Ref()) {
				continue
			}
			if err := d.Insert(b); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			if fork || extend < 0 {
				branches[bi] = append(branches[bi], tip{ref: b.Ref(), seq: seq})
			} else {
				branches[bi][extend] = tip{ref: b.Ref(), seq: seq}
			}
			refs = append(refs, b.Ref())
		}

		// Oracle comparison over all pairs.
		anc := make(map[block.Ref]map[block.Ref]struct{}, len(refs))
		for _, r := range refs {
			anc[r] = ancestrySet(d, r)
		}
		for _, u := range refs {
			for _, v := range refs {
				_, inAnc := anc[v][u]
				want := inAnc && u != v
				if got := d.Reaches(u, v); got != want {
					t.Fatalf("seed %d: Reaches(%v, %v) = %v, want %v", seed, u, v, got, want)
				}
				if got := d.HappenedBefore(u, v); got != want {
					t.Fatalf("seed %d: HappenedBefore(%v, %v) = %v, want %v", seed, u, v, got, want)
				}
				_, vInU := anc[u][v]
				wantConc := u != v && !want && !vInU
				if got := d.Concurrent(u, v); got != wantConc {
					t.Fatalf("seed %d: Concurrent(%v, %v) = %v, want %v", seed, u, v, got, wantConc)
				}
			}
		}
	}
}

// TestAllIteratorMatchesBlocks checks the no-copy iterator yields the
// same sequence as the copying accessor and honors early exit.
func TestAllIteratorMatchesBlocks(t *testing.T) {
	roster, signers := fixture(t, 2)
	d := New(roster)
	b1 := sealed(t, signers[0], 0, nil, nil)
	b2 := sealed(t, signers[1], 0, nil, nil)
	b3 := sealed(t, signers[0], 1, []block.Ref{b1.Ref(), b2.Ref()}, nil)
	mustInsert(t, d, b1, b2, b3)

	want := d.Blocks()
	i := 0
	for b := range d.All() {
		if b != want[i] {
			t.Fatalf("All()[%d] = %v, want %v", i, b.Ref(), want[i].Ref())
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("All() yielded %d blocks, want %d", i, len(want))
	}
	count := 0
	for range d.All() {
		count++
		if count == 2 {
			break
		}
	}
	if count != 2 {
		t.Fatalf("early exit yielded %d", count)
	}
}
