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
// live only at chain tips and are advanced in place, out-buffers, tombstones
// and block states go once every chain has passed them, whoever
// finds the cache empty replays, and in-buffers are derived on demand.

// recount walks the interpreter's states for what Stats keeps a running
// count of, and for the number of instance tables.
func (it *Interpreter) recount() (stats Stats, tables int) {
	stats.RetiredLabels = it.retired.Len()
	for _, st := range it.states {
		if st == nil {
			continue
		}
		stats.OutMessages += len(st.out)
		if len(st.out) > 0 {
			stats.HoldingBlocks++
		}
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

// TestForkAfterAdvance is Lemma 4.2 with the cache cold. Whichever branch
// of an equivocation arrives first takes the parent's instances in place and
// the other replays, and a branch that arrives after every chain has passed
// its parent finds the table gone and its sources released; so feeding the
// branches in every arrival order — main first, fork first, fork last,
// random — holds the miss path against the cache on every block of both
// branches: out-buffers, in-buffers, state digests (absent once the
// instance has retired, on either path) and indications must be those of an
// interpreter that never released anything.
func TestForkAfterAdvance(t *testing.T) {
	h1, labels1, branch := forkAfterAdvanceDAG()
	h2 := buildContentiousDAG(t)
	for _, tc := range []struct {
		name   string
		d      *dag.DAG
		labels []types.Label
		branch func(*block.Block) bool
	}{
		{"fork-after-advance", h1.DAG, labels1, func(b *block.Block) bool { return branch[b.Ref()] }},
		// The fork of the contentious DAG is server 3's second seq-2 block.
		{"contentious", h2.DAG, []types.Label{"a", "b", "c"}, func(b *block.Block) bool {
			return b.Builder == 3 && b.Seq == 2 && len(b.Requests) > 0
		}},
	} {
		d, isBranch := tc.d, tc.branch
		orders := map[string][]*block.Block{
			"main-first": d.Blocks(),
			"fork-first": topoOrderPreferring(d, isBranch),
			"fork-last":  topoOrderPreferring(d, func(b *block.Block) bool { return !isBranch(b) }),
		}
		for seed := int64(0); seed < 8; seed++ {
			orders[fmt.Sprintf("random-%d", seed)] = randomTopoOrder(d, rand.New(rand.NewSource(seed)))
		}
		// run also counts the blocks that arrived to a cold cache: a source
		// released, or a parent whose table a sibling had taken or whose
		// state release had let go.
		run := func(it *Interpreter, inds *[]Indication, order []*block.Block) (_ []string, cold int) {
			for _, b := range order {
				for _, p := range b.Preds {
					ps := it.state(p)
					pb, _ := d.Get(p)
					if ps.released || pb.Builder == b.Builder && pb.Seq+1 == b.Seq && ps.pis == nil {
						cold++
						break
					}
				}
				if err := it.AddBlock(b); err != nil {
					t.Fatal(err)
				}
			}
			if held, tables := it.recount(); held != it.stats {
				t.Fatalf("%s: holds %+v in %d tables, stats %+v", tc.name, held, tables, it.stats)
			}
			return sortedIndications(*inds), cold
		}
		onInd, inds := collectInds()
		reference := newHolding(brb.Protocol{}, 4, 1, onInd)
		refInds, _ := run(reference, inds, orders["main-first"])
		if len(refInds) == 0 {
			t.Fatalf("%s delivered nothing", tc.name)
		}
		coldTotal := 0
		for name, order := range orders {
			ctx := tc.name + " " + name
			onInd, inds := collectInds()
			other := New(brb.Protocol{}, 4, 1, onInd)
			got, cold := run(other, inds, order)
			coldTotal += cold
			if name == "fork-last" && cold == 0 {
				t.Fatalf("%s: no branch block arrived after its sources were released", ctx)
			}
			if fmt.Sprint(got) != fmt.Sprint(refInds) {
				t.Fatalf("%s: indications differ:\n%v\n%v", ctx, got, refInds)
			}
			agreeOn(t, d, tc.labels, reference, other, ctx)
			for b := range d.All() {
				for _, label := range tc.labels {
					in1 := reference.InMessages(b.Ref(), label)
					in2 := other.InMessages(b.Ref(), label)
					if !equalMessages(in1, in2) {
						t.Fatalf("%s: in-buffer of %v / %s differs", ctx, b.Ref(), label)
					}
				}
			}
		}
		if coldTotal < 3 {
			t.Fatalf("%s: %d cold arrivals over all orders", tc.name, coldTotal)
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
// process instances in n tables while they run, and once every chain has
// delivered and read the others' last READY nothing but k entries of the
// retired set, however many rounds follow. Stats reports the same counts
// without walking the states.
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
		// An ECHO per label and chain, in the blocks of rounds 0 and 1.
		want := Stats{LiveInstances: k * n, OutMessages: k * n, HoldingBlocks: 2 * n}
		if rounds > 2 {
			// Every chain delivered in round 3 and dropped the instance.
			want = Stats{RetiredLabels: k}
		}
		if held != want || tables != n || it.stats != want {
			t.Fatalf("after %d rounds: holds %+v in %d tables, stats %+v; want %+v in %d tables",
				rounds, held, tables, it.stats, want, n)
		}
	}
}

// staggeredDAG builds the DAG a running cluster builds: the four servers
// take turns, each block referencing every block its builder has not
// referenced yet, so a chain usually sees other chains' READY in the step
// in which it sends its own. Each of the first labels turns carries one
// BRB request of size random bytes; enough turns follow to deliver the
// last on every chain.
func staggeredDAG(labels, size int) *dag.DAG { return staggeredWaves(1, labels, size) }

// staggeredWaves is staggeredDAG waves times over, in one DAG: labels turns
// with a request each, then 4n quiet turns.
func staggeredWaves(waves, labels, size int) *dag.DAG {
	const n = 4
	h := dagtest.NewHarness(n)
	rng := rand.New(rand.NewSource(int64(size)))
	for turn := 0; turn < waves*(labels+4*n); turn++ {
		var reqs []block.Request
		if turn%(labels+4*n) < labels {
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

// quietStaggered is staggeredDAG's shape without requests, count blocks long:
// four chains taking turns, each block citing the other chains' tips. The
// blocks are sealed, and inserted without checking the signatures again.
func quietStaggered(count int) *dag.DAG {
	const n = 4
	h := dagtest.NewHarness(n)
	tips := make([]*block.Block, n)
	for turn := 0; turn < count; turn++ {
		s := turn % n
		var preds []block.Ref
		if tips[s] != nil {
			preds = append(preds, tips[s].Ref())
		}
		for other := 0; other < n; other++ {
			if other != s && tips[other] != nil {
				preds = append(preds, tips[other].Ref())
			}
		}
		b := h.Seal(s, uint64(turn/n), preds)
		if err := h.DAG.InsertVerified(b); err != nil {
			panic(err)
		}
		tips[s] = b
	}
	return h.DAG
}

// heldStates counts the slots that hold a state rather than gone.
func (it *Interpreter) heldStates() int {
	held := 0
	for _, st := range it.states {
		if st != nil && !st.isGone() {
			held++
		}
	}
	return held
}

// TestStatesAreAWindow: the interpreter keeps the states of the blocks some
// chain has not read, not of the run. Over a DAG, interpreting 16 384
// request-free blocks on four staggered chains may leave at most 24 B a block
// more on the live heap than interpreting 4 096: a slot of the state slice,
// slack included. (While every block kept its state for good it was ≈ 90 B.)
// An interpreter that numbers the blocks itself holds the very same states —
// its rows keep the blocks, as a DAG does, and nothing else: the same few at
// either count. Each DAG is built before the first reading.
func TestStatesAreAWindow(t *testing.T) {
	const n, perBlockBound = 4, 24
	counts := []int{4096, 16384}
	heap := make([]float64, len(counts))
	for i, count := range counts {
		d := quietStaggered(count)
		before := dagtest.LiveHeap()
		it := New(brb.Protocol{}, n, 1, nil, Over(d))
		if err := it.InterpretDAG(d); err != nil {
			t.Fatal(err)
		}
		heap[i] = float64(dagtest.LiveHeap()) - float64(before)
		runtime.KeepAlive(it)
		runtime.KeepAlive(d)
		own := New(brb.Protocol{}, n, 1, nil)
		if err := own.InterpretDAG(d); err != nil {
			t.Fatal(err)
		}
		if got, ownGot := countInterpreted(it, d.Blocks()), countInterpreted(own, d.Blocks()); got != count || ownGot != count {
			t.Fatalf("%d and %d blocks interpreted, want %d", got, ownGot, count)
		}
		if held, ownHeld := it.heldStates(), own.heldStates(); held != ownHeld || held > 2*n {
			t.Fatalf("%d blocks: %d states held over the DAG, %d with rows of its own; want the same, at most %d",
				count, held, ownHeld, 2*n)
		}
	}
	perBlock := (heap[1] - heap[0]) / float64(counts[1]-counts[0])
	t.Logf("live heap %.0f B after %d blocks, %.0f B after %d: %.1f B a block", heap[0], counts[0], heap[1], counts[1], perBlock)
	if perBlock > perBlockBound {
		t.Fatalf("the interpreter's live heap grows %.1f B a block, want at most %d", perBlock, perBlockBound)
	}
}

// TestRetainedPerDeliveredLabel: what a delivered label leaves behind in
// the interpreter of one node (over the node's DAG, as core builds it), once
// every chain has read the last READY, is one entry of the retired set — the
// label's bytes and their length in the key arena, an offset and a slot of
// the table — and, this DAG carrying one label per block, the block's slot
// of the state slice: no state, no out-record, no tombstone, no payload, so
// the same at 64 KiB as at 32 B. Measured on the live heap over 256 labels:
// 55 B over one wave, 43 B a label over sixteen. (While the retired set was a
// map of labels, 80 B and 66 B; before buffers followed the frontier, 1012 B
// a label at 32 B and 2.26·|v| at 64 KiB; while the interpreter kept an index
// and a watermark of its own per block, 302 B; while every block kept its
// state, the chain link, 168 B.)
const retainedPerLabelBound = 66

func TestRetainedPerDeliveredLabel(t *testing.T) {
	const n, labels = 4, 256
	for _, size := range []int{32, 64 << 10} {
		d := staggeredDAG(labels, size)
		delivered := 0
		before := dagtest.LiveHeap()
		it := New(brb.Protocol{}, n, 1, func(Indication) { delivered++ }, Over(d))
		if err := it.InterpretDAG(d); err != nil {
			t.Fatal(err)
		}
		retained := dagtest.LiveHeap() - before
		runtime.KeepAlive(it)
		runtime.KeepAlive(d) // or its index is collected and counts against the interpreter
		if delivered != n*labels {
			t.Fatalf("|v| = %d: %d deliveries, want %d", size, delivered, n*labels)
		}
		if want := (Stats{RetiredLabels: labels}); it.stats != want {
			t.Fatalf("|v| = %d: stats %+v, want %+v", size, it.stats, want)
		}
		perLabel := int(retained) / labels
		t.Logf("|v| = %d: %d B retained per delivered label", size, perLabel)
		if perLabel > retainedPerLabelBound {
			t.Fatalf("|v| = %d: %d B retained per delivered label, want at most %d", size, perLabel, retainedPerLabelBound)
		}
	}
}

// TestHeldFollowsTheLoadNotTheRun: 4096 labels in 16 waves. After every
// wave the interpreter is back where it was after the first — no live
// instance, no tombstone, no out-record — and what a wave adds to the live
// heap is its blocks' slots and its retired labels, the same every wave;
// within a wave the out-records held stay within what the blocks not yet
// read by every chain emitted, a few rounds' worth.
func TestHeldFollowsTheLoadNotTheRun(t *testing.T) {
	const n, waves, labels = 4, 16, 256
	d := staggeredWaves(waves, labels, 32)
	blocks := d.Blocks()
	perWave := len(blocks) / waves
	before := dagtest.LiveHeap()
	it := New(brb.Protocol{}, n, 1, nil, Over(d))
	var heap [waves]uint64
	peak := 0
	for w := 0; w < waves; w++ {
		for _, b := range blocks[w*perWave : (w+1)*perWave] {
			if err := it.AddBlock(b); err != nil {
				t.Fatal(err)
			}
			peak = max(peak, it.stats.OutMessages)
		}
		if want := (Stats{RetiredLabels: (w + 1) * labels}); it.stats != want {
			t.Fatalf("after wave %d: stats %+v, want %+v", w, it.stats, want)
		}
		heap[w] = dagtest.LiveHeap() - before
	}
	runtime.KeepAlive(it)
	runtime.KeepAlive(d)
	// Two records a label and chain; a label is in flight for about 3n turns.
	if bound := 2 * n * 3 * n; peak == 0 || peak > bound {
		t.Fatalf("%d out-records held at the peak, want at most %d", peak, bound)
	}
	first, last := heap[0], heap[waves-1]-heap[waves-2]
	perLabel := int(heap[waves-1]) / (waves * labels)
	t.Logf("live heap grows %d B in the first wave, %d B in the last, %d B a label; %d out-records held at the peak", first, last, perLabel, peak)
	if perLabel > retainedPerLabelBound {
		t.Fatalf("%d B retained per label over %d waves, want at most %d", perLabel, waves, retainedPerLabelBound)
	}
}

// TestSilentChainHoldsEverything: release is gated by all n chains. While
// one builder is silent nothing is released — its chain has read nothing,
// and its first block back reads the whole backlog — and nothing breaks:
// the other chains deliver, and that first block back (sources: every block
// built meanwhile) is interpreted exactly as by an interpreter that never
// releases. From there the backlog drains.
func TestSilentChainHoldsEverything(t *testing.T) {
	const n, labels = 4, 24
	h := dagtest.NewHarness(n)
	for s := 0; s < n; s++ {
		h.Genesis(s)
	}
	for turn := 0; turn < labels+3*n; turn++ { // server 3 builds nothing
		var reqs []block.Request
		if turn < labels {
			reqs = append(reqs, block.Request{Label: types.Label(fmt.Sprintf("quiet/%d", turn)), Data: []byte{byte(turn)}})
		}
		s := turn % (n - 1)
		h.Next(s, []block.Ref{h.Tip((s + 1) % (n - 1)), h.Tip((s + 2) % (n - 1))}, reqs...)
	}
	onInd, inds := collectInds()
	it := New(brb.Protocol{}, n, 1, onInd)
	refInd, refInds := collectInds()
	reference := newHolding(brb.Protocol{}, n, 1, refInd)
	feed := func() {
		for _, target := range []*Interpreter{it, reference} {
			if err := target.InterpretDAG(h.DAG); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed()
	if len(*inds) != (n-1)*labels {
		t.Fatalf("%d deliveries with one chain silent, want %d", len(*inds), (n-1)*labels)
	}
	// Nothing was released and no label retired: the silent chain gates both.
	held, _ := reference.recount()
	if got := it.stats; got != held || got.RetiredLabels != 0 || got.Tombstones != (n-1)*labels {
		t.Fatalf("with one chain silent: stats %+v, an interpreter that releases nothing holds %+v", got, held)
	}
	if unread := it.unread[3]; unread < h.DAG.Len()-2*n {
		t.Fatalf("silent chain has %d blocks unread, DAG has %d", unread, h.DAG.Len())
	}

	// Server 3 returns: its first block cites the three tips, so its
	// sources are the whole backlog, held when it reads them.
	back := h.Next(3, []block.Ref{h.Tip(0), h.Tip(1), h.Tip(2)})
	feed()
	if sources, held := it.newAncestry(it.state(back.Ref())); len(sources) < h.DAG.Len()-2*n || !held {
		t.Fatalf("first block back read %d sources (held: %v), want the backlog", len(sources), held)
	}
	for r := 0; r < 4; r++ {
		h.Round(nil)
	}
	feed()
	if !it.state(back.Ref()).isGone() {
		t.Fatal("first block back still held after every chain read it")
	}
	if fmt.Sprint(sortedIndications(*inds)) != fmt.Sprint(sortedIndications(*refInds)) {
		t.Fatal("indications differ from an interpreter that releases nothing")
	}
	if len(*inds) != n*labels {
		t.Fatalf("%d deliveries after the silent chain returned, want %d", len(*inds), n*labels)
	}
	var all []types.Label
	for i := 0; i < labels; i++ {
		all = append(all, types.Label(fmt.Sprintf("quiet/%d", i)))
	}
	agreeOn(t, h.DAG, all, reference, it, "after the silent chain returned")
	if got := it.stats; got.RetiredLabels != labels || got.Tombstones != 0 || got.OutMessages > 2*n {
		t.Fatalf("after the silent chain returned: stats %+v, want the backlog drained", got)
	}
}

// TestBacklogKeepsNoScratch: a chain back from silence reads the whole
// backlog in one block, on every node. The interpreter's scratch buffers
// must not keep that size — a crash-recover run saw 200 kB a node of
// in-buffer kept that way.
func TestBacklogKeepsNoScratch(t *testing.T) {
	const n, labels = 4, maxScratch + 64
	h := dagtest.NewHarness(n)
	for s := 0; s < n; s++ {
		h.Genesis(s)
	}
	for turn := 0; turn < labels; turn++ { // server 3 builds nothing
		s := turn % (n - 1)
		h.Next(s, []block.Ref{h.Tip((s + 1) % (n - 1)), h.Tip((s + 2) % (n - 1))},
			block.Request{Label: types.Label(fmt.Sprintf("backlog/%d", turn)), Data: []byte{byte(turn)}})
	}
	back := h.Next(3, []block.Ref{h.Tip(0), h.Tip(1), h.Tip(2)})
	h.Round(nil) // the walk after lets the backlog's buffers go
	holding := newHolding(brb.Protocol{}, n, 1, nil)
	if err := holding.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	sources, _ := holding.newAncestry(holding.state(back.Ref()))
	if read := len(inMessages(nil, back.Builder, sources, nil)); read <= maxScratch || len(sources) <= maxScratch {
		t.Fatalf("the block back read %d messages from %d sources: no backlog past %d", read, len(sources), maxScratch)
	}
	it := New(brb.Protocol{}, n, 1, nil, Over(h.DAG))
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	if cap(it.in) > maxScratch || cap(it.sources) > maxScratch || cap(it.stack) > maxScratch {
		t.Fatalf("scratch kept after the backlog: in %d, sources %d, stack %d; want at most %d each",
			cap(it.in), cap(it.sources), cap(it.stack), maxScratch)
	}
}

// TestBacklogKeepsNoPeak: a chain back from silence retires the whole
// backlog's labels at once, which leaves the chain tips' tables and the done
// counts empty — and, Go maps never shrinking, holding the buckets the outage
// grew (a crash-recover run saw 301 kB a node kept that way) — and releases
// the backlog's blocks from the front of each chain's queue, whose array
// stays behind the few blocks left. Once the
// backlog has drained, the interpreter must hold what one holds that was fed
// the same labels with no chain silent, within 10 %.
func TestBacklogKeepsNoPeak(t *testing.T) {
	const n, labels = 4, 1024
	build := func(silent bool) *dag.DAG {
		h := dagtest.NewHarness(n)
		for s := 0; s < n; s++ {
			h.Genesis(s)
		}
		for turn := 0; turn < labels; turn++ {
			s := turn % (n - 1)
			preds := []block.Ref{h.Tip((s + 1) % (n - 1)), h.Tip((s + 2) % (n - 1))}
			if !silent {
				preds = append(preds, h.Tip(3))
			}
			h.Next(s, preds, block.Request{Label: types.Label(fmt.Sprintf("peak/%d", turn)), Data: []byte{byte(turn)}})
			if !silent && s == n-2 {
				h.Next(3, []block.Ref{h.Tip(0), h.Tip(1), h.Tip(2)})
			}
		}
		h.Next(3, []block.Ref{h.Tip(0), h.Tip(1), h.Tip(2)})
		for r := 0; r < 4; r++ {
			h.Round(nil)
		}
		return h.DAG
	}
	held := func(silent bool) uint64 {
		d := build(silent)
		before := dagtest.LiveHeap()
		it := New(brb.Protocol{}, n, 1, nil, Over(d))
		if err := it.InterpretDAG(d); err != nil {
			t.Fatal(err)
		}
		if got := it.stats; got.RetiredLabels != labels || got.LiveInstances != 0 || got.Tombstones != 0 || len(it.done) != 0 {
			t.Fatalf("silent %v: stats %+v, %d labels counted done; want every label retired", silent, got, len(it.done))
		}
		retained := dagtest.LiveHeap() - before
		runtime.KeepAlive(it)
		return retained
	}
	silent, steady := held(true), held(false)
	t.Logf("after the backlog drained the interpreter holds %d B; fed the same labels with no chain silent, %d B", silent, steady)
	if float64(silent) > 1.1*float64(steady) {
		t.Fatalf("the interpreter keeps %d B after the backlog drained, %d B without the outage: the outage's peak stayed", silent, steady)
	}
}

// TestHeldQueueKeepsItsArray: release pops a chain's queue by an index and
// compacts it in place once the popped prefix is at least the rest, so the
// queue's array follows the blocks not yet read by every chain, not the
// run: after 4 096 staggered blocks no chain's array is past maxHeldKeep
// entries, and the popped prefix is shorter than the rest.
func TestHeldQueueKeepsItsArray(t *testing.T) {
	d := quietStaggered(4096)
	it := New(brb.Protocol{}, 4, 1, nil, Over(d))
	for i := 0; i < d.Len(); i++ {
		b, err := d.ReadRow(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := it.AddBlock(b); err != nil {
			t.Fatal(err)
		}
		for x, ch := range it.chains {
			if cap(ch.held) > maxHeldKeep || ch.head > 0 && ch.head >= len(ch.held)-ch.head {
				t.Fatalf("after %d blocks chain %d's queue: %d popped, %d held, an array of %d",
					i+1, x, ch.head, len(ch.held)-ch.head, cap(ch.held))
			}
		}
	}
}

// TestReadyPayloadsShareOneArray: a chain that sends READY v in a step in
// which it was fed another chain's READY v stores that chain's payload, not
// its own encoding of the same bytes, so the READYs of a label at one node
// are one array — as its ECHOs have been since BRB answers in kind.
func TestReadyPayloadsShareOneArray(t *testing.T) {
	d := staggeredDAG(8, 100)
	it := newHolding(brb.Protocol{}, 4, 1, nil)
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

// TestValueBytesHeldPerLabel: at worst, and only until every chain has read
// the label's last READY, the interpreter holds a request's bytes n+1 times
// per label — the ECHO payload encoded where the request is interpreted,
// which every other chain's ECHO re-emits, and one READY payload per chain
// when, as in these lock-step rounds, every chain sends READY before it has
// seen another's — not once per message, tally and delivery. Measured on an
// interpreter that releases nothing, so all 32 labels of 64 KiB count as in
// flight at once; one more |v| of slack covers everything that is not
// payload. (TestRetainedPerDeliveredLabel has what is left afterwards.)
func TestValueBytesHeldPerLabel(t *testing.T) {
	const n, labels, size = 4, 32, 64 << 10
	d := largeValueDAG(labels, size)
	delivered := 0
	before := dagtest.LiveHeap()
	it := newHolding(brb.Protocol{}, n, 1, func(Indication) { delivered++ })
	if err := it.InterpretDAG(d); err != nil {
		t.Fatal(err)
	}
	retained := dagtest.LiveHeap() - before
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
