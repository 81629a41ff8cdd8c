package interpret

import (
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/protocols/courier"
	"blockdag/internal/types"
)

// add interprets blocks in order, failing the test on an error.
func add(t *testing.T, it *Interpreter, blocks ...*block.Block) {
	t.Helper()
	for _, b := range blocks {
		if err := it.AddBlock(b); err != nil {
			t.Fatal(err)
		}
	}
}

// courierTo is a courier request: deliver data to server to.
func courierTo(label types.Label, to types.ServerID, data string) block.Request {
	return block.Request{Label: label, Data: courier.EncodeRequest(to, []byte(data))}
}

// TestOwnTipOutBufferUnreadUntilItsNextBlock: a block's out-buffer is unread
// by every chain that does not reach it, its own chain included while the
// block is that chain's tip — only the chain's next block takes it in.
// Another builder's block that cites it has read it.
func TestOwnTipOutBufferUnreadUntilItsNextBlock(t *testing.T) {
	h := dagtest.NewHarness(4)
	it := New(courier.Protocol{}, 4, 1, nil, Over(h.DAG))
	for c := range types.ServerID(4) {
		if it.Unread(c) {
			t.Fatalf("chain %d: unread out-buffers in an empty DAG", c)
		}
	}
	add(t, it, h.Genesis(0, courierTo("ℓ", 1, "x")))
	if !it.UnreadOf(0, 0) || !it.Unread(0) {
		t.Fatal("chain 0 read its own tip's out-buffer before its next block")
	}
	if !it.UnreadOf(1, 0) || it.UnreadOf(1, 1) || it.UnreadOf(0, 1) {
		t.Fatalf("unread (1 of 0, 1 of 1, 0 of 1) = %v %v %v, want true false false",
			it.UnreadOf(1, 0), it.UnreadOf(1, 1), it.UnreadOf(0, 1))
	}

	add(t, it, h.Next(0, nil))
	if it.UnreadOf(0, 0) || it.Unread(0) {
		t.Fatal("chain 0's next block did not read its parent's out-buffer")
	}
	if !it.Unread(1) {
		t.Fatal("chain 1, with no block, has read chain 0's out-buffer")
	}
	add(t, it, h.GenesisWithPreds(1, []block.Ref{h.DAG.ByBuilder(0)[0].Ref()}))
	if it.UnreadOf(1, 0) || it.Unread(1) {
		t.Fatal("chain 1's block cites the out-buffer, yet counts it unread")
	}
	if !it.Unread(2) || !it.Unread(3) {
		t.Fatal("chains 2 and 3 read an out-buffer no block of theirs reaches")
	}
}

// TestUnreadOfScansAForkedChainWhole: a chain's held blocks are in
// interpretation order, which is chain order until the builder forks. Builder
// 0 extends one branch to seq 2, holding an out-buffer there, and then forks
// at seq 1, holding another. Chain 1 cites only the fork: it has read seq 1
// but not the first branch's seq 2. The fork, newest in the queue and below
// what chain 1 read, must not end the scan.
func TestUnreadOfScansAForkedChainWhole(t *testing.T) {
	h := dagtest.NewHarness(4)
	it := New(courier.Protocol{}, 4, 1, nil, Over(h.DAG))
	g := h.Genesis(0)
	a1 := h.Next(0, nil)
	a2 := h.Next(0, nil, courierTo("a", 2, "branch a"))
	b1 := h.Seal(0, 1, []block.Ref{g.Ref()}, courierTo("b", 3, "branch b"))
	h.Insert(b1)
	add(t, it, g, a1, a2, b1)
	c1 := h.GenesisWithPreds(1, []block.Ref{b1.Ref()})
	add(t, it, c1)
	if got := it.read(1, 0); got != 2 {
		t.Fatalf("setup: chain 1 read builder 0 up to %d, want 2 (the fork at seq 1)", got)
	}
	if !it.UnreadOf(1, 0) {
		t.Fatal("chain 1 has not read seq 2 of builder 0's first branch, yet nothing counts unread")
	}
	if !it.Unread(1) {
		t.Fatal("Unread(1) disagrees with UnreadOf(1, 0)")
	}
}

// others returns the tips of every chain but c's.
func others(h *dagtest.Harness, c int) []block.Ref {
	var tips []block.Ref
	for x := range h.Roster.N() {
		if x != c {
			tips = append(tips, h.Tip(x))
		}
	}
	return tips
}

// extend has builder c extend its chain citing every other chain's tip,
// interprets the block and settles: a node's turn once a block is built.
func extend(t *testing.T, h *dagtest.Harness, it *Interpreter, c int, reqs ...block.Request) {
	t.Helper()
	add(t, it, h.Next(c, others(h, c), reqs...))
	it.Settle()
}

// quietPoint runs brb over h: a round of geneses, one label requested at
// builder 0, then the builders in turn extend their chains (extend) until
// the interpreter pends a quiet point. It returns the quiet point and the
// builder whose block was the last.
func quietPoint(t *testing.T, h *dagtest.Harness, it *Interpreter) ([]uint64, int) {
	t.Helper()
	add(t, it, h.Round(nil)...)
	extend(t, h, it, 0, block.Request{Label: "ℓ", Data: []byte("v")})
	for k := 1; k < 60; k++ {
		extend(t, h, it, k%4)
		if it.quiet != nil {
			return slices.Clone(it.quiet), k % 4
		}
	}
	t.Fatal("no quiet point in 60 blocks")
	return nil, 0
}

// TestRunningFollowsTheInstances: no instance runs before a request; one
// runs from the block that carries the request until every chain's instance
// is done; and a protocol whose instances never finish keeps running.
func TestRunningFollowsTheInstances(t *testing.T) {
	h := dagtest.NewHarness(4)
	it := New(brb.Protocol{}, 4, 1, nil, Over(h.DAG))
	add(t, it, h.Round(nil)...)
	if it.Running() {
		t.Fatal("running with nothing requested")
	}
	add(t, it, h.Next(0, nil, block.Request{Label: "ℓ", Data: []byte("v")}))
	if !it.Running() {
		t.Fatal("not running after a request")
	}
	for range 8 {
		add(t, it, h.Round(nil)...)
	}
	if it.Running() {
		t.Fatalf("still running after every chain delivered: %+v", it.stats)
	}

	hc := dagtest.NewHarness(4)
	ic := New(courier.Protocol{}, 4, 1, nil, Over(hc.DAG))
	add(t, ic, hc.Round(map[int][]block.Request{0: {courierTo("ℓ", 1, "x")}})...)
	for range 4 {
		add(t, ic, hc.Round(nil)...)
	}
	if !ic.Running() {
		t.Fatal("a courier instance never finishes, yet nothing runs")
	}
}

// TestPassedWantsTheOwnChainAboveTheQuietPoint: with no quiet point pending
// every chain has passed. Once one is pending, a chain has passed it when its
// tip has read every other chain up to it and stands one position above its
// own. The chain whose block left the quiet point has read every other chain
// up to it, but stands at its own position there: it has not passed until
// its next block.
func TestPassedWantsTheOwnChainAboveTheQuietPoint(t *testing.T) {
	h := dagtest.NewHarness(4)
	it := New(brb.Protocol{}, 4, 1, nil, Over(h.DAG))
	for c := range types.ServerID(4) {
		if !it.Passed(c) {
			t.Fatalf("chain %d has not passed, with no quiet point pending", c)
		}
	}
	quiet, last := quietPoint(t, h, it)
	for x := range 4 {
		if got := it.read(last, x); got != quiet[x] {
			t.Fatalf("setup: chain %d read builder %d up to %d, the quiet point %v", last, x, got, quiet)
		}
	}
	if it.Passed(types.ServerID(last)) {
		t.Fatalf("chain %d passed the quiet point %v from its own position there", last, quiet)
	}
	next := (last + 1) % 4
	if it.Passed(types.ServerID(next)) {
		t.Fatalf("chain %d passed the quiet point %v without reading chain %d up to it", next, quiet, last)
	}
	add(t, it, h.Next(last, nil))
	if !it.Passed(types.ServerID(last)) {
		t.Fatalf("chain %d stands above the quiet point %v and read every chain up to it, yet has not passed", last, quiet)
	}
}

// TestSettleMovesTheFrontierAndTheCut: the release a block starts with runs
// before it, so after a block the frontier and the cut stand where that
// block's builder had not yet built it. Settle runs that release with no new
// block. Once a quiet point is pending and every chain has built one block
// past it, the last of them interpreted, Settle raises the frontier and
// moves the cut to the quiet point.
func TestSettleMovesTheFrontierAndTheCut(t *testing.T) {
	h := dagtest.NewHarness(4)
	it := New(brb.Protocol{}, 4, 1, nil, Over(h.DAG))
	quiet, last := quietPoint(t, h, it)
	for k := 1; k < 4; k++ {
		extend(t, h, it, (last+k)%4)
	}
	add(t, it, h.Next(last, others(h, last)))
	frontier, cut := slices.Clone(it.Frontier()), slices.Clone(it.Cut())
	if slices.Equal(cut, quiet) {
		t.Fatalf("setup: the cut %v moved to the quiet point before the settle", cut)
	}
	it.Settle()
	if after := it.Frontier(); !dominated(frontier, after) || slices.Equal(frontier, after) {
		t.Fatalf("settle moved the frontier %v → %v, want it risen", frontier, after)
	}
	if !slices.Equal(it.Cut(), quiet) {
		t.Fatalf("settle left the cut at %v, want the quiet point %v", it.Cut(), quiet)
	}
}
