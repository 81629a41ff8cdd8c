package interpret

import (
	"fmt"
	"maps"
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

// recount walks the interpreter's states for what Stats keeps a running
// count of, and for the number of instance tables.
func (it *Interpreter) recount() (stats Stats, tables int) {
	for _, st := range it.states {
		stats.OutMessages += len(st.out)
		if st.pis == nil {
			continue
		}
		tables++
		for _, p := range st.pis {
			if p != nil {
				stats.LiveInstances++
			} else {
				stats.Tombstones++
			}
		}
	}
	return stats, tables
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

// forkAfterAdvanceDAG builds the scenario the in-place advance must
// survive: server 3's chain B0→B1→B2→… runs live instances ("ℓ" from its
// genesis, "m" from server 0's), and server 3 equivocates twice — a branch
// B1'→B2'→B3' off B0 while the label is still undelivered, and a late
// branch off a mid-chain block after every label has delivered and been
// retired. Correct servers reference both branches. It
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
// out-buffers, in-buffers, state digests (absent once the instance has
// retired, on either path) and indications.
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
	run := func(order []*block.Block) (*Interpreter, []string) {
		onInd, inds := collectInds()
		it := New(brb.Protocol{}, 4, 1, onInd)
		for _, b := range order {
			if err := it.AddBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		return it, sortedIndications(*inds)
	}
	reference, refInds := run(orders["main-first"])
	if len(refInds) == 0 {
		t.Fatal("scenario delivered nothing")
	}
	for name, order := range orders {
		other, inds := run(order)
		ctx := name
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
// process instances in n tables while they run, and none once every chain
// has delivered — a tombstone each is what is left, however many rounds
// follow. Stats reports the same counts without walking the states.
func TestInstancesHeldPerChainNotPerBlock(t *testing.T) {
	const n, k = 4, 6
	h := dagtest.NewHarness(n)
	it := New(brb.Protocol{}, n, 1, nil)
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
		held, tables := it.recount()
		want := Stats{LiveInstances: k * n, OutMessages: k * n} // an ECHO per label and chain
		if rounds > 2 {
			// Every chain delivered in round 3 and dropped the instance.
			want = Stats{Tombstones: k * n, OutMessages: 2 * k * n}
		}
		if held != want || tables != n || it.Stats() != want {
			t.Fatalf("after %d rounds: holds %+v in %d tables, stats %+v; want %+v in %d tables",
				rounds, held, tables, it.Stats(), want, n)
		}
	}
}

// staggeredDAG builds the DAG a running cluster builds: the four servers
// take turns, each block referencing every block its builder has not
// referenced yet, so a chain usually sees other chains' READY in the step
// in which it sends its own. Each of the first labels turns carries one
// BRB request of size random bytes; enough turns follow to deliver the
// last on every chain.
func staggeredDAG(labels, size int) *dag.DAG {
	const n = 4
	h := dagtest.NewHarness(n)
	rng := rand.New(rand.NewSource(int64(size)))
	for turn := 0; turn < labels+4*n; turn++ {
		var reqs []block.Request
		if turn < labels {
			value := make([]byte, size)
			rng.Read(value)
			reqs = append(reqs, block.Request{Label: types.Label(fmt.Sprintf("staggered/%d", turn)), Data: value})
		}
		s := turn % n
		var preds []block.Ref
		for other := 0; other < n; other++ {
			if other != s && turn > other {
				preds = append(preds, h.Tip(other))
			}
		}
		if turn < n {
			h.GenesisWithPreds(s, preds, reqs...)
		} else {
			h.Next(s, preds, reqs...)
		}
	}
	return h.DAG
}

// TestRetainedPerDeliveredLabel: what a delivered label leaves behind in
// the interpreter of one node is 2n out-records, n tombstones and two
// payload encodings — the ECHO and the READY, each held once however many
// chains emitted it. Measured on the live heap over 256 labels, at 32 B
// that is under 1 KiB a label (the parent held 2.2 KiB: n finished
// instances, a map and a slice per block and label, n READY encodings),
// and at 64 KiB under 3·|v| (the parent held n+1 encodings, 5.6·|v|).
func TestRetainedPerDeliveredLabel(t *testing.T) {
	const n, labels = 4, 256
	for _, tc := range []struct{ size, bound int }{
		{size: 32, bound: 1 << 10},
		{size: 64 << 10, bound: 3 * 64 << 10},
	} {
		d := staggeredDAG(labels, tc.size)
		delivered := 0
		before := liveHeap()
		it := New(brb.Protocol{}, n, 1, func(Indication) { delivered++ })
		if err := it.InterpretDAG(d); err != nil {
			t.Fatal(err)
		}
		retained := liveHeap() - before
		runtime.KeepAlive(it)
		runtime.KeepAlive(d) // or its index is collected and counts against the interpreter
		if delivered != n*labels {
			t.Fatalf("|v| = %d: %d deliveries, want %d", tc.size, delivered, n*labels)
		}
		if want := (Stats{Tombstones: n * labels, OutMessages: 2 * n * labels}); it.Stats() != want {
			t.Fatalf("|v| = %d: stats %+v, want %+v", tc.size, it.Stats(), want)
		}
		perLabel := int(retained) / labels
		t.Logf("|v| = %d: %d B retained per delivered label", tc.size, perLabel)
		if perLabel > tc.bound {
			t.Fatalf("|v| = %d: %d B retained per delivered label, want at most %d", tc.size, perLabel, tc.bound)
		}
	}
}

// TestReadyPayloadsShareOneArray: a chain that sends READY v in a step in
// which it was fed another chain's READY v stores that chain's payload, not
// its own encoding of the same bytes, so the READYs of a label at one node
// are one array — as its ECHOs have been since BRB answers in kind.
func TestReadyPayloadsShareOneArray(t *testing.T) {
	d := staggeredDAG(8, 100)
	it := New(brb.Protocol{}, 4, 1, nil)
	if err := it.InterpretDAG(d); err != nil {
		t.Fatal(err)
	}
	arrays := make(map[types.Label]map[*byte]int) // label → payload array → records
	for _, st := range it.states {
		for _, m := range st.out {
			if arrays[m.Label] == nil {
				arrays[m.Label] = make(map[*byte]int)
			}
			arrays[m.Label][&m.Payload[0]]++
		}
	}
	if len(arrays) != 8 {
		t.Fatalf("%d labels emitted, want 8", len(arrays))
	}
	for label, byArray := range arrays {
		// One array of four ECHOs, one of four READYs.
		if len(byArray) != 2 {
			t.Fatalf("%s: payloads held in %d arrays, want 2: %v", label, len(byArray), byArray)
		}
		for _, records := range byArray {
			if records != 4 {
				t.Fatalf("%s: an array backs %d records, want 4", label, records)
			}
		}
	}
}

// TestValueBytesHeldPerLabel: at worst the interpreter holds a request's
// bytes n+1 times per label — the ECHO payload encoded where the request is
// interpreted, which every other chain's ECHO re-emits, and one READY
// payload per chain when, as in these lock-step rounds, every chain sends
// READY before it has seen another's (TestRetainedPerDeliveredLabel has the
// usual case) — not once per message, tally and delivery. 32 labels of
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

// tapProtocol wraps a protocol, logs every message fed to any of its
// instances and notes which (server, label) instances have reported Done.
type tapProtocol struct {
	protocol.Protocol
	fed  *[]protocol.Message
	done map[protocol.Config]bool
}

func (p tapProtocol) NewProcess(cfg protocol.Config) protocol.Process {
	return &tapProcess{Process: p.Protocol.NewProcess(cfg), cfg: cfg, tap: p}
}

type tapProcess struct {
	protocol.Process
	cfg protocol.Config
	tap tapProtocol
}

func (p *tapProcess) Receive(m protocol.Message) []protocol.Message {
	*p.tap.fed = append(*p.tap.fed, m)
	return p.Process.Receive(m)
}

func (p *tapProcess) Done() bool {
	done := p.Process.Done()
	if done {
		p.tap.done[p.cfg] = true
	}
	return done
}

// TestInMessagesAreWhatInstancesWereFed: B.Ms[in, ℓ] is not recorded but
// derived from the sources' out-buffers on demand; the derivation must
// return, label by label and in order, exactly the messages AddBlock fed
// to B's instances — or, for a label whose instance had reported Done at
// an earlier block of the chain, the messages it discarded. Fork-free
// DAGs, so nothing is fed twice by a replay.
func TestInMessagesAreWhatInstancesWereFed(t *testing.T) {
	discarded := 0
	for seed := int64(1); seed <= 4; seed++ {
		h, labels := buildRandomDAG(rand.New(rand.NewSource(seed)), 4, 60)
		var fed []protocol.Message
		tap := tapProtocol{Protocol: brb.Protocol{}, fed: &fed, done: make(map[protocol.Config]bool)}
		it := New(tap, 4, 1, nil)
		total := 0
		for b := range h.DAG.All() {
			fed = fed[:0]
			retired := maps.Clone(tap.done)
			if err := it.AddBlock(b); err != nil {
				t.Fatal(err)
			}
			var derived []protocol.Message
			for _, label := range labels {
				in := it.InMessages(b.Ref(), label)
				if retired[protocol.Config{Self: b.Builder, Label: label, N: 4, F: 1}] {
					discarded += len(in)
					continue
				}
				derived = append(derived, in...)
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
	if discarded == 0 {
		t.Fatal("no message reached a retired instance")
	}
}
