package interpret

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/protocols/pbft"
	"blockdag/internal/types"
)

// quietRuns grows a random DAG of four chains in which requests come in
// bursts and quiet stretches let every instance finish: each step one
// server extends a branch of its own, citing each other builder's tip —
// one of its branches, at random — with probability 3/4, and one step in
// three of a burst carries a request. The request for a label is built by
// the label's pbft leader, so that its instance finishes under brb and
// pbft alike, and no label is requested twice. With fork, builder 0 now
// and then opens a second branch at a block it has already extended, so
// later extensions of either branch duplicate its sequence numbers.
func quietRuns(rng *rand.Rand, steps int, fork bool) *dag.DAG {
	const n = 4
	h := dagtest.NewHarness(n)
	type tip struct {
		ref block.Ref
		seq uint64
	}
	branches := make([][]tip, n)
	labels := 0
	for step := 0; step < steps; step++ {
		bi := rng.Intn(n)
		var reqs []block.Request
		if step%60 < 15 && rng.Intn(3) == 0 {
			label := types.Label(fmt.Sprintf("q/%d", labels))
			labels++
			bi = int(pbft.Leader(label, n))
			reqs = append(reqs, block.Request{Label: label, Data: []byte{byte(step)}})
		}
		var seq uint64
		var preds []block.Ref
		extend := -1
		if len(branches[bi]) > 0 {
			extend = rng.Intn(len(branches[bi]))
			parent := branches[bi][extend]
			seq, preds = parent.seq+1, []block.Ref{parent.ref}
		}
		for other := range branches {
			if other != bi && len(branches[other]) > 0 && rng.Intn(4) > 0 {
				preds = append(preds, branches[other][rng.Intn(len(branches[other]))].ref)
			}
		}
		b := h.Seal(bi, seq, preds, reqs...)
		if h.DAG.Contains(b.Ref()) {
			continue
		}
		h.Insert(b)
		if next := (tip{b.Ref(), seq}); extend < 0 || fork && bi == 0 && rng.Intn(8) == 0 {
			branches[bi] = append(branches[bi], next)
		} else {
			branches[bi][extend] = next
		}
	}
	return h.DAG
}

// lingering is brb whose instances for label q/1 never report Done: once
// q/1 is delivered they stay live with nothing in flight, as instances a
// withheld quorum leaves do.
type lingering struct{ brb.Protocol }

func (lingering) Name() string { return "brb-lingering" }

func (p lingering) NewProcess(cfg protocol.Config) protocol.Process {
	proc := p.Protocol.NewProcess(cfg)
	if cfg.Label == "q/1" {
		return undone{proc}
	}
	return proc
}

type undone struct{ protocol.Process }

func (undone) Done() bool { return false }

// TestCutIsAQuietPointEveryChainReadPast runs brb, pbft and lingering over
// seeded quietRuns DAGs, a forking builder among them, and checks Cut
// after every block: it only rises; it is at most the frontier; a quiet
// point is pended only where the interpreter holds no live instance, no
// tombstone and no out-buffer (recounted from the states); and the cut is
// a quiet point pended before. At the end, for every cut the run took, a
// fresh interpreter over the DAG cut there (store.PruneTo's cut: the
// blocks at or above it, on SeedBase stand-ins) indicates what the run
// indicated at those blocks.
func TestCutIsAQuietPointEveryChainReadPast(t *testing.T) {
	cuts := 0
	for _, proto := range []protocol.Protocol{brb.Protocol{}, pbft.Protocol{}, lingering{}} {
		for seed := int64(1); seed <= 8; seed++ {
			fork := seed%2 == 0
			t.Run(fmt.Sprintf("%s/seed=%d/fork=%v", proto.Name(), seed, fork), func(t *testing.T) {
				d := quietRuns(rand.New(rand.NewSource(seed)), 240, fork)
				onInd, inds := collectInds()
				it := New(proto, 4, 1, onInd, Over(d))
				var pending []uint64
				var taken [][]uint64
				for i, b := range d.Blocks() {
					if err := it.AddBlock(b); err != nil {
						t.Fatal(err)
					}
					prev := slices.Clone(it.Cut())
					it.release() // the release the next block starts with, which moves the cut
					cut := it.Cut()
					switch {
					case !dominated(prev, cut):
						t.Fatalf("block %d: cut fell %v → %v", i, prev, cut)
					case !dominated(cut, it.Frontier()):
						t.Fatalf("block %d: cut %v above the frontier %v", i, cut, it.Frontier())
					case !slices.Equal(cut, prev) && !slices.Equal(cut, pending):
						t.Fatalf("block %d: cut %v is not the quiet point pended, %v", i, cut, pending)
					}
					if !slices.Equal(cut, prev) {
						taken = append(taken, slices.Clone(cut))
					}
					if it.quiet != nil && !slices.Equal(it.quiet, pending) {
						if s, _ := it.recount(); s.LiveInstances+s.Tombstones+s.OutMessages > 0 {
							t.Fatalf("block %d: quiet point %v pended holding %+v", i, it.quiet, s)
						}
						pending = slices.Clone(it.quiet)
					}
				}
				if !fork && proto.Name() != "brb-lingering" && len(taken) == 0 {
					t.Fatal("no cut in a run with quiet stretches")
				}
				cuts += len(taken)
				for _, cut := range taken {
					cd, base := cutCopy(t, d, cut)
					var want []Indication
					for _, ind := range *inds {
						if b, _ := d.Get(ind.Block); b.Seq >= cut[b.Builder] {
							want = append(want, ind)
						}
					}
					onFresh, got := collectInds()
					fresh := New(proto, 4, 1, onFresh, Over(cd))
					if err := fresh.SeedBase(base); err != nil {
						t.Fatal(err)
					}
					if err := fresh.InterpretDAG(cd); err != nil {
						t.Fatal(err)
					}
					if g, w := sortedIndications(*got), sortedIndications(want); !slices.Equal(g, w) {
						t.Fatalf("cut %v: a replay from the cut indicates\n%v\nthe run indicated\n%v", cut, g, w)
					}
				}
			})
		}
	}
	t.Logf("%d cuts checked", cuts)
}
