package interpret

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// buildDeepForkedDAG grows a deep random DAG in which builder 0
// equivocates: new branches open from existing tips instead of replacing
// them, so later extensions duplicate (builder, seq) slots. BRB requests
// are sprinkled in so interpretation produces real messages. Blocks are
// inserted through the DAG, which validates the parent rule.
func buildDeepForkedDAG(rng *rand.Rand, n, steps int) (*dag.DAG, []types.Label) {
	h := dagtest.NewHarness(n)
	d := h.DAG
	type tip struct {
		ref block.Ref
		seq uint64
	}
	branches := make([][]tip, n)
	var refs []block.Ref
	var labels []types.Label
	for step := 0; step < steps; step++ {
		bi := rng.Intn(n)
		var seq uint64
		var preds []block.Ref
		fork := bi == 0 && len(branches[bi]) > 0 && rng.Float64() < 0.15
		extend := -1
		if len(branches[bi]) > 0 {
			extend = rng.Intn(len(branches[bi]))
			base := branches[bi][extend]
			seq = base.seq + 1
			preds = append(preds, base.ref)
		}
		for _, r := range refs {
			if rng.Float64() >= 0.1 {
				continue
			}
			// Never a second parent-slot block: the parent rule
			// forbids referencing both branches of a fork there.
			if slices.Contains(preds, r) {
				continue // each predecessor once: the parent is cited already
			}
			if rb, ok := d.Get(r); ok && int(rb.Builder) == bi &&
				seq > 0 && rb.Seq == seq-1 {
				continue
			}
			preds = append(preds, r)
		}
		var reqs []block.Request
		if rng.Intn(5) == 0 {
			label := types.Label(fmt.Sprintf("bc/%d", len(labels)))
			labels = append(labels, label)
			reqs = append(reqs, block.Request{Label: label, Data: []byte{byte(step)}})
		}
		b := h.Seal(bi, seq, preds, reqs...)
		if d.Contains(b.Ref()) {
			continue
		}
		h.Insert(b)
		if fork || extend < 0 {
			branches[bi] = append(branches[bi], tip{ref: b.Ref(), seq: seq})
		} else {
			branches[bi][extend] = tip{ref: b.Ref(), seq: seq}
		}
		refs = append(refs, b.Ref())
	}
	return d, labels
}

// agreeOn asserts two interpreters computed identical per-block results
// over the whole DAG: state digests for every label and out-buffers for
// every block.
func agreeOn(t *testing.T, d *dag.DAG, labels []types.Label, a, b *Interpreter, ctx string) {
	t.Helper()
	for blk := range d.All() {
		ref := blk.Ref()
		for _, label := range labels {
			d1, ok1 := a.StateDigest(ref, label)
			d2, ok2 := b.StateDigest(ref, label)
			if ok1 != ok2 || !bytes.Equal(d1, d2) {
				t.Fatalf("%s: digest of %v / %s diverges", ctx, ref, label)
			}
			m1 := a.OutMessages(ref, label)
			m2 := b.OutMessages(ref, label)
			if len(m1) != len(m2) {
				t.Fatalf("%s: out-buffer of %v / %s: %d vs %d messages",
					ctx, ref, label, len(m1), len(m2))
			}
			for i := range m1 {
				if protocol.Compare(m1[i], m2[i]) != 0 {
					t.Fatalf("%s: out-buffer of %v / %s differs at %d",
						ctx, ref, label, i)
				}
			}
		}
	}
}

// TestOrderIndependenceUnderForks is Lemma 4.2 on deep forked DAGs:
// whatever topological order blocks arrive in — and hence whichever branch
// of an equivocation is interpreted first — every per-block digest and
// out-buffer is identical.
func TestOrderIndependenceUnderForks(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4
		d, labels := buildDeepForkedDAG(rng, n, 120)
		if len(labels) == 0 {
			continue
		}
		reference := New(brb.Protocol{}, n, 1, nil)
		if err := reference.InterpretDAG(d); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(dagtest.Forked(d)) == 0 {
			t.Fatalf("seed %d: generator produced no equivocation", seed)
		}
		for trial := 0; trial < 3; trial++ {
			other := New(brb.Protocol{}, n, 1, nil)
			for _, b := range randomTopoOrder(d, rng) {
				if err := other.AddBlock(b); err != nil {
					t.Fatalf("seed %d trial %d: %v", seed, trial, err)
				}
			}
			agreeOn(t, d, labels, reference, other, fmt.Sprintf("seed %d trial %d", seed, trial))
		}
	}
}

// TestIncrementalMatchesFresh feeds a deep forked DAG once
// incrementally (online, via the insert callback) and once from scratch
// (offline InterpretDAG over the finished DAG) and requires identical
// results — the replay-equivalence crash recovery relies on.
func TestIncrementalMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 4
	// Rebuild the same DAG twice with the same seed: once wired to an
	// online interpreter, once bare for offline replay.
	online := New(brb.Protocol{}, n, 1, nil)
	d, labels := buildDeepForkedDAG(rng, n, 200)
	for b := range d.All() {
		if err := online.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
	fresh := New(brb.Protocol{}, n, 1, nil)
	if err := fresh.InterpretDAG(d); err != nil {
		t.Fatal(err)
	}
	if got, want := countInterpreted(online, d.Blocks()), countInterpreted(fresh, d.Blocks()); got != want || got != d.Len() {
		t.Fatalf("interpreted %d vs %d of %d blocks", got, want, d.Len())
	}
	agreeOn(t, d, labels, online, fresh, "incremental-vs-fresh")
}
