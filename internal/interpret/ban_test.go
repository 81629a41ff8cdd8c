package interpret

import (
	"bytes"
	"math/rand"
	"testing"

	"blockdag/internal/dagtest"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// TestBanPreservesPaperSemantics is the accountability regression test:
// banning an equivocator stops its *future* blocks at admission (gossip),
// but interpretation never hears about bans — the already-inserted forked
// chains keep their paper semantics. The test freezes the contentious
// DAG at the moment of conviction (the equivocator contributes nothing
// further), grows it with honest blocks only, and demands:
//
//  1. every pre-ban block — the forks included — is still in the DAG;
//  2. the interpretation of the pre-ban prefix is byte-identical before
//     and after the honest-only growth (⩽-monotonicity is unaffected by
//     the builder going silent);
//  3. Lemma 4.2 order-independence holds over the post-ban DAG.
func TestBanPreservesPaperSemantics(t *testing.T) {
	h := buildContentiousDAG(t)
	labels := []types.Label{"a", "b", "c"}

	// The conviction moment: interpret the full contentious DAG and
	// remember the equivocator's blocks.
	prefix := snapshot(t, h)
	preBan := New(brb.Protocol{}, 4, 1, nil)
	if err := preBan.InterpretDAG(prefix); err != nil {
		t.Fatal(err)
	}
	banned := h.DAG.ByBuilder(3)
	if eqs := dagtest.Forked(h.DAG); len(eqs) != 1 || eqs[0] != 3 {
		t.Fatalf("forked chains = %v, want [3]", eqs)
	}

	// Post-ban growth: only the honest servers build. The banned builder
	// contributes nothing new, but honest chains that already reference
	// its pre-ban blocks keep extending.
	for r := 0; r < 3; r++ {
		for _, s := range []int{0, 1, 2} {
			h.Next(s, nil)
		}
	}

	// (1) The ban removed nothing.
	for _, b := range banned {
		if !h.DAG.Contains(b.Ref()) {
			t.Fatalf("pre-ban block %v vanished from the DAG", b.Ref())
		}
	}
	if got := h.DAG.ByBuilder(3); len(got) != len(banned) {
		t.Fatalf("banned builder's chain changed: %d blocks, want %d", len(got), len(banned))
	}

	// (2) Flagged-chain interpretation of the prefix is unchanged.
	postBan := New(brb.Protocol{}, 4, 1, nil)
	if err := postBan.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	for _, b := range prefix.Blocks() {
		for _, label := range labels {
			d1, ok1 := preBan.StateDigest(b.Ref(), label)
			d2, ok2 := postBan.StateDigest(b.Ref(), label)
			if ok1 != ok2 || !bytes.Equal(d1, d2) {
				t.Fatalf("block %v label %s: interpretation changed across the ban", b.Ref(), label)
			}
		}
	}

	// (3) Lemma 4.2 on the post-ban DAG: any eligible insertion order
	// yields identical states and out-buffers.
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		other := New(brb.Protocol{}, 4, 1, nil)
		for _, b := range randomTopoOrder(h.DAG, rng) {
			if err := other.AddBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range h.DAG.Blocks() {
			for _, label := range labels {
				d1, ok1 := postBan.StateDigest(b.Ref(), label)
				d2, ok2 := other.StateDigest(b.Ref(), label)
				if ok1 != ok2 || !bytes.Equal(d1, d2) {
					t.Fatalf("trial %d: block %v label %s: digests differ", trial, b.Ref(), label)
				}
				m1 := postBan.OutMessages(b.Ref(), label)
				m2 := other.OutMessages(b.Ref(), label)
				if len(m1) != len(m2) {
					t.Fatalf("trial %d: block %v label %s: out buffers differ", trial, b.Ref(), label)
				}
				for i := range m1 {
					if protocol.Compare(m1[i], m2[i]) != 0 {
						t.Fatalf("trial %d: block %v label %s: out[%d] differs", trial, b.Ref(), label, i)
					}
				}
			}
		}
	}
}
