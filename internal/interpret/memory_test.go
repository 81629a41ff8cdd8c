package interpret

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// The tests in this file pin the interpreter's memory model: instances
// live only at chain tips and are advanced in place, a fork rebuilds its
// parent's instances by replay, and in-buffers are derived on demand.

// heldInstances counts the process instances the interpreter holds, and
// the instance tables holding them.
func (it *Interpreter) heldInstances() (procs, tables int) {
	for _, st := range it.states {
		if st.pis == nil {
			continue
		}
		tables++
		for _, p := range st.pis {
			if p != nil {
				procs++
			}
		}
	}
	return procs, tables
}

// topoOrderPreferring returns a topological order of d that, whenever
// several blocks are eligible, takes one prefer selects (else the earliest
// inserted).
func topoOrderPreferring(d *dag.DAG, prefer func(*block.Block) bool) []*block.Block {
	return topoOrder(d, func(eligible []*block.Block) *block.Block {
		if i := slices.IndexFunc(eligible, prefer); i >= 0 {
			return eligible[i]
		}
		return eligible[0]
	})
}

// interpretModes are the four configurations every equivalence holds in.
var interpretModes = map[string][]Option{
	"explicit":        nil,
	"explicit/retire": {WithRetirement()},
	"implicit":        {WithImplicitInclusion()},
	"implicit/retire": {WithImplicitInclusion(), WithRetirement()},
}

// forkAfterAdvanceDAG builds the scenario the in-place advance must
// survive: server 3's chain B0→B1→B2→… runs live instances ("ℓ" from its
// genesis, "m" from server 0's), and server 3 equivocates twice — a branch
// B1'→B2'→B3' off B0 while the label is still undelivered, and a late
// branch off a mid-chain block after every label has delivered (and, with
// retirement, been dropped). Correct servers reference both branches. It
// returns the harness, the labels, and the set of equivocating-branch
// blocks.
func forkAfterAdvanceDAG() (*dagtest.Harness, []types.Label, map[block.Ref]bool) {
	h := dagtest.NewHarness(4)
	labels := []types.Label{"ℓ", "m", "fork", "late"}
	round0 := h.Round(map[int][]block.Request{
		3: {{Label: "ℓ", Data: []byte("v")}},
		0: {{Label: "m", Data: []byte("w")}},
	})
	h.Round(nil)
	round2 := h.Round(nil)

	branch := make(map[block.Ref]bool)
	seal := func(seq uint64, preds []block.Ref, reqs ...block.Request) *block.Block {
		b := h.Seal(3, seq, preds, reqs...)
		h.Insert(b)
		branch[b.Ref()] = true
		return b
	}
	b0 := round0[3]
	b1f := seal(1, []block.Ref{b0.Ref(), round0[0].Ref(), round0[1].Ref()},
		block.Request{Label: "fork", Data: []byte("x")})
	b2f := seal(2, []block.Ref{b1f.Ref(), round2[0].Ref()})
	b3f := seal(3, []block.Ref{b2f.Ref(), round2[1].Ref(), round2[2].Ref()})

	h.Next(0, []block.Ref{h.Tip(1), h.Tip(2), h.Tip(3), b3f.Ref()})
	h.Next(1, []block.Ref{h.Tip(0), h.Tip(2), h.Tip(3), b3f.Ref()})
	for r := 0; r < 4; r++ {
		h.Round(nil)
	}

	// The late fork: its parent is two blocks behind server 3's tip.
	chain := h.DAG.ByBuilder(3)
	var base *block.Block
	for _, b := range chain {
		if !branch[b.Ref()] && b.Seq == 4 {
			base = b
		}
	}
	late := seal(5, []block.Ref{base.Ref(), h.Tip(0)},
		block.Request{Label: "late", Data: []byte("y")})
	h.Next(2, []block.Ref{h.Tip(0), h.Tip(1), h.Tip(3), late.Ref()})
	h.Round(nil)
	h.Round(nil)
	return h, labels, branch
}

// sortedIndications renders indications as a sorted multiset, the form in
// which two interpretation orders of one DAG must agree.
func sortedIndications(inds []Indication) []string {
	out := make([]string, len(inds))
	for i, ind := range inds {
		out[i] = fmt.Sprintf("%v %s %d %q", ind.Block, ind.Label, ind.Server, ind.Value)
	}
	sort.Strings(out)
	return out
}

// TestForkAfterAdvance: whichever branch of an equivocation arrives first
// takes the parent's instances in place and the other rebuilds them by
// replay, so feeding the branches in every arrival order cross-checks
// rebuild against in-place advance on every block of both branches —
// out-buffers, in-buffers, state digests and indications — in both
// inclusion modes, with and without retirement.
func TestForkAfterAdvance(t *testing.T) {
	h, labels, branch := forkAfterAdvanceDAG()
	d := h.DAG
	orders := map[string][]*block.Block{
		"main-first": d.Blocks(),
		"fork-first": topoOrderPreferring(d, func(b *block.Block) bool { return branch[b.Ref()] }),
		"fork-last":  topoOrderPreferring(d, func(b *block.Block) bool { return !branch[b.Ref()] }),
	}
	for seed := int64(0); seed < 8; seed++ {
		orders[fmt.Sprintf("random-%d", seed)] = randomTopoOrder(d, rand.New(rand.NewSource(seed)))
	}
	for mode, opts := range interpretModes {
		run := func(order []*block.Block) (*Interpreter, []string) {
			onInd, inds := collectInds()
			it := New(brb.Protocol{}, 4, 1, onInd, opts...)
			for _, b := range order {
				if err := it.AddBlock(b); err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
			}
			return it, sortedIndications(*inds)
		}
		reference, refInds := run(orders["main-first"])
		if len(refInds) == 0 {
			t.Fatalf("%s: scenario delivered nothing", mode)
		}
		for name, order := range orders {
			other, inds := run(order)
			ctx := mode + " " + name
			if fmt.Sprint(inds) != fmt.Sprint(refInds) {
				t.Fatalf("%s: indications differ:\n%v\n%v", ctx, inds, refInds)
			}
			agreeOn(t, d, labels, reference, other, ctx)
			for b := range d.All() {
				for _, label := range labels {
					in1 := reference.InMessages(b.Ref(), label)
					in2 := other.InMessages(b.Ref(), label)
					if !equalMessages(in1, in2) {
						t.Fatalf("%s: in-buffer of %v / %s differs", ctx, b.Ref(), label)
					}
				}
			}
		}
	}
}

func equalMessages(a, b []protocol.Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if protocol.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// TestInstancesHeldPerChainNotPerBlock: k labels live on n chains cost k·n
// process instances in n tables however many rounds advance them — the
// clone-per-block overlay held one more copy per label per block.
func TestInstancesHeldPerChainNotPerBlock(t *testing.T) {
	const n, k = 4, 6
	for _, retire := range []bool{false, true} {
		var opts []Option
		if retire {
			opts = append(opts, WithRetirement())
		}
		h := dagtest.NewHarness(n)
		it := New(brb.Protocol{}, n, 1, nil, opts...)
		reqs := make(map[int][]block.Request)
		for i := 0; i < k; i++ {
			label := types.Label(fmt.Sprintf("l/%d", i))
			reqs[i%n] = append(reqs[i%n], block.Request{Label: label, Data: []byte("v")})
		}
		h.Round(reqs)
		h.Round(nil)
		for _, rounds := range []int{2, 16, 64} {
			for h.DAG.Len() < n*rounds {
				h.Round(nil)
			}
			if err := it.InterpretDAG(h.DAG); err != nil {
				t.Fatal(err)
			}
			procs, tables := it.heldInstances()
			want := k * n
			if retire && rounds > 2 {
				want = 0 // every instance delivered by round 3 and was dropped
			}
			if procs != want || tables != n {
				t.Fatalf("retire=%v after %d rounds: %d instances in %d tables, want %d in %d",
					retire, rounds, procs, tables, want, n)
			}
		}
	}
}

// TestValueBytesHeldPerLabel: the interpreter holds a request's bytes n+1
// times per label — the ECHO payload encoded where the request is
// interpreted, which every other chain's ECHO re-emits, and one READY
// payload per chain — not once per message, tally and delivery. 32 labels of
// 64 KiB through four chains; one more |v| of slack covers everything that
// is not payload.
func TestValueBytesHeldPerLabel(t *testing.T) {
	const n, labels, size = 4, 32, 64 << 10
	d := largeValueDAG(labels, size)
	delivered := 0
	before := liveHeap()
	it := New(brb.Protocol{}, n, 1, func(Indication) { delivered++ })
	if err := it.InterpretDAG(d); err != nil {
		t.Fatal(err)
	}
	retained := liveHeap() - before
	runtime.KeepAlive(it)
	if delivered != n*labels {
		t.Fatalf("%d deliveries, want %d", delivered, n*labels)
	}
	if held := float64(retained) / (labels * size); held > n+2 {
		t.Fatalf("interpreter holds %.1f×|v| per label, want at most n+2 = %d", held, n+2)
	} else {
		t.Logf("interpreter holds %.2f×|v| per label", held)
	}
}

// tapProtocol wraps a protocol and logs every message fed to any of its
// instances.
type tapProtocol struct {
	protocol.Protocol
	fed *[]protocol.Message
}

func (p tapProtocol) NewProcess(cfg protocol.Config) protocol.Process {
	return &tapProcess{Process: p.Protocol.NewProcess(cfg), fed: p.fed}
}

type tapProcess struct {
	protocol.Process
	fed *[]protocol.Message
}

func (p *tapProcess) Receive(m protocol.Message) []protocol.Message {
	*p.fed = append(*p.fed, m)
	return p.Process.Receive(m)
}

// TestInMessagesAreWhatInstancesWereFed: B.Ms[in, ℓ] is no longer recorded
// but derived from the sources' out-buffers on demand; the derivation must
// return, label by label and in order, exactly the messages AddBlock fed
// to B's instances. Fork-free DAGs, so nothing is fed twice by a replay.
func TestInMessagesAreWhatInstancesWereFed(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithImplicitInclusion()}} {
		for seed := int64(1); seed <= 4; seed++ {
			h, labels := buildRandomDAG(rand.New(rand.NewSource(seed)), 4, 60)
			var fed []protocol.Message
			it := New(tapProtocol{Protocol: brb.Protocol{}, fed: &fed}, 4, 1, nil, opts...)
			total := 0
			for b := range h.DAG.All() {
				fed = fed[:0]
				if err := it.AddBlock(b); err != nil {
					t.Fatal(err)
				}
				var derived []protocol.Message
				for _, label := range labels {
					derived = append(derived, it.InMessages(b.Ref(), label)...)
				}
				sort.SliceStable(derived, func(i, j int) bool { return derived[i].Label < derived[j].Label })
				if !equalMessages(derived, fed) {
					t.Fatalf("seed %d block %v: derived in-buffer has %d messages, instances were fed %d",
						seed, b.Ref(), len(derived), len(fed))
				}
				total += len(fed)
			}
			if total == 0 {
				t.Fatalf("seed %d: nothing was fed", seed)
			}
		}
	}
}
