package dag

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/types"
)

// Merge inserts every block of other into d in topological order,
// producing a joint block DAG G' ⩾ G_d ∪ G_other (Lemma A.7): the tests'
// reference for the joint DAG. Blocks of other are revalidated against d's
// roster on the way in.
func (d *DAG) Merge(other *DAG) error {
	for i := range other.order {
		b, err := other.read(i)
		if err != nil {
			return fmt.Errorf("dag: merge: %w", err)
		}
		if err := d.Insert(b); err != nil {
			return fmt.Errorf("dag: merge block %v: %w", b.Ref(), err)
		}
	}
	return nil
}

// TestMonotonicGrowthProperty: along any random valid insertion sequence,
// every earlier DAG snapshot is ⩽ every later one (Lemma 2.2(2) lifted to
// block DAGs), and the insertion order remains topological.
func TestMonotonicGrowthProperty(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := New(roster)
		tips := make(map[int]block.Ref)
		seqs := make(map[int]uint64)
		var snapshot *DAG
		steps := 5 + rng.Intn(15)
		snapAt := rng.Intn(steps)
		for i := 0; i < steps; i++ {
			server := rng.Intn(4)
			var preds []block.Ref
			seq := uint64(0)
			if tip, ok := tips[server]; ok {
				preds = append(preds, tip)
				seq = seqs[server] + 1
			}
			// Random extra references to other chains.
			for o, tip := range tips {
				if o != server && rng.Intn(2) == 0 {
					preds = append(preds, tip)
				}
			}
			b := block.New(types.ServerID(server), seq, preds, nil)
			if err := b.Seal(signers[server]); err != nil {
				return false
			}
			if err := d.Insert(b); err != nil {
				return false
			}
			tips[server] = b.Ref()
			seqs[server] = seq
			if i == snapAt {
				snapshot = New(roster)
				if err := snapshot.Merge(d); err != nil {
					return false
				}
			}
		}
		if !snapshot.Leq(d) {
			return false
		}
		// Insertion order is topological.
		pos := make(map[block.Ref]int)
		for i, b := range d.Blocks() {
			pos[b.Ref()] = i
		}
		for _, b := range d.Blocks() {
			for _, p := range b.Preds {
				if pos[p] >= pos[b.Ref()] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMergeCommutesProperty: merging A into B and B into A yields the same
// joint block DAG (Lemma A.7's joint DAG is unique as a set of blocks).
func TestMergeCommutesProperty(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Shared genesis layer in both DAGs.
		g := make([]*block.Block, 3)
		for i := range g {
			b := block.New(types.ServerID(i), 0, nil, nil)
			if err := b.Seal(signers[i]); err != nil {
				return false
			}
			g[i] = b
		}
		mk := func(owner int) *DAG {
			d := New(roster)
			for _, b := range g {
				if err := d.Insert(b); err != nil {
					return nil
				}
			}
			tip := g[owner].Ref()
			for k := uint64(1); k <= uint64(1+rng.Intn(4)); k++ {
				preds := []block.Ref{tip}
				if rng.Intn(2) == 0 {
					preds = append(preds, g[(owner+1)%3].Ref())
				}
				b := block.New(types.ServerID(owner), k, preds, nil)
				if err := b.Seal(signers[owner]); err != nil {
					return nil
				}
				if err := d.Insert(b); err != nil {
					return nil
				}
				tip = b.Ref()
			}
			return d
		}
		da, db := mk(0), mk(1)
		if da == nil || db == nil {
			return false
		}
		ab, ba := New(roster), New(roster)
		for _, err := range []error{ab.Merge(da), ab.Merge(db), ba.Merge(db), ba.Merge(da)} {
			if err != nil {
				return false
			}
		}
		return ab.Len() == ba.Len() && ab.Leq(ba) && ba.Leq(ab)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
