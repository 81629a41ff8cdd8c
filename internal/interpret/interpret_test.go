package interpret

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/metrics"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/protocols/courier"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// newHolding returns an interpreter that follows no chain tip, as every
// replay is: it releases no out-buffer and retires no label, so it holds
// what Algorithm 2 keeps — for the tests that look at all of it, and as the
// reference an interpreter that releases is held against.
func newHolding(proto protocol.Protocol, n, f int, onInd func(Indication)) *Interpreter {
	it := New(proto, n, f, onInd)
	it.spine = map[int32]bool{}
	return it
}

// collectInds returns an indication sink and the slice it fills.
func collectInds() (func(Indication), *[]Indication) {
	var inds []Indication
	return func(i Indication) { inds = append(inds, i) }, &inds
}

// senders extracts the distinct sender set {m.Sender | m} of a message
// slice, as a sorted string like "s0,s2".
func senders(msgs []protocol.Message) string {
	seen := make(map[types.ServerID]bool)
	for _, m := range msgs {
		seen[m.Sender] = true
	}
	var out string
	for i := 0; i < 16; i++ {
		if seen[types.ServerID(i)] {
			if out != "" {
				out += ","
			}
			out += fmt.Sprintf("s%d", i)
		}
	}
	return out
}

// TestFigure4 reconstructs the paper's Figure 4 scenario: a block DAG of
// four servers where s0's genesis block carries (ℓ1, broadcast(42)), and
// the DAG proceeds in all-to-all rounds. The message buffers Ms[in/out,ℓ1]
// materialized at each block must show the double-echo wave: the request
// block emits ECHO to everyone; first-responder blocks show
// in = ECHO from {s0} and emit their own ECHO; quorum blocks show
// in = ECHO from {s1,s2,s3} and emit READY; the next round delivers.
func TestFigure4(t *testing.T) {
	h := dagtest.NewHarness(4)
	onInd, inds := collectInds()
	it := newHolding(brb.Protocol{}, 4, 1, onInd) // a replay would answer with its own arrays

	val := []byte("42")
	round0 := h.Round(map[int][]block.Request{
		0: {{Label: "ℓ1", Data: val}},
	})
	round1 := h.Round(nil)
	round2 := h.Round(nil)
	round3 := h.Round(nil)
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}

	// Round 0: the request block emits ECHO 42 to every server; its
	// in-buffer is empty (matches Figure 4's B1 annotation).
	b1 := round0[0]
	if got := it.InMessages(b1.Ref(), "ℓ1"); len(got) != 0 {
		t.Fatalf("B1 in = %v, want ∅", got)
	}
	out := it.OutMessages(b1.Ref(), "ℓ1")
	if len(out) != 4 {
		t.Fatalf("B1 out has %d messages, want ECHO to all 4", len(out))
	}
	for i, m := range out {
		if m.Sender != 0 || m.Receiver != types.ServerID(i) {
			t.Fatalf("B1 out[%d] is %v -> %v, want s0 -> s%d", i, m.Sender, m.Receiver, i)
		}
	}
	echo := out[0].Payload
	// Other genesis blocks materialize nothing.
	for i := 1; i < 4; i++ {
		if got := it.OutMessages(round0[i].Ref(), "ℓ1"); len(got) != 0 {
			t.Fatalf("genesis %d out = %v, want ∅", i, got)
		}
	}

	// Round 1: servers s1..s3 see in = ECHO 42 from {s0} and echo to
	// everyone; s0 sees its own echo back and stays quiet (already
	// echoed).
	for i := 1; i < 4; i++ {
		in := it.InMessages(round1[i].Ref(), "ℓ1")
		if got := senders(in); got != "s0" {
			t.Fatalf("round1[%d] in from %q, want s0", i, got)
		}
		out := it.OutMessages(round1[i].Ref(), "ℓ1")
		if len(out) != 4 {
			t.Fatalf("round1[%d] out has %d messages, want ECHO to all", i, len(out))
		}
		// The echo is the message they were handed, not a copy of it.
		for _, m := range out {
			if &m.Payload[0] != &echo[0] {
				t.Fatalf("round1[%d] echoes a copy of B1's ECHO payload", i)
			}
		}
	}
	if got := senders(it.InMessages(round1[0].Ref(), "ℓ1")); got != "s0" {
		t.Fatalf("round1[0] in from %q, want s0 (self echo)", got)
	}
	if got := it.OutMessages(round1[0].Ref(), "ℓ1"); len(got) != 0 {
		t.Fatalf("round1[0] out = %v, want ∅ (already echoed)", got)
	}

	// Round 2: every server has collected echoes from {s1,s2,s3} in
	// this round (s0's echo arrived in round 1), crosses the 2f+1
	// quorum, and emits READY to everyone — Figure 4's B6 annotation.
	for i := 0; i < 4; i++ {
		in := it.InMessages(round2[i].Ref(), "ℓ1")
		if got := senders(in); got != "s1,s2,s3" {
			t.Fatalf("round2[%d] in from %q, want s1,s2,s3", i, got)
		}
		out := it.OutMessages(round2[i].Ref(), "ℓ1")
		if len(out) != 4 {
			t.Fatalf("round2[%d] out has %d messages, want READY to all", i, len(out))
		}
	}

	// Round 3: every server sees READY from all four, crosses 2f+1, and
	// delivers 42.
	if len(*inds) != 4 {
		t.Fatalf("got %d indications, want one deliver per server: %v", len(*inds), *inds)
	}
	seen := make(map[types.ServerID]bool)
	for _, ind := range *inds {
		if ind.Label != "ℓ1" || !bytes.Equal(ind.Value, val) {
			t.Fatalf("indication %+v, want deliver(42) on ℓ1", ind)
		}
		if seen[ind.Server] {
			t.Fatalf("server %v delivered twice", ind.Server)
		}
		seen[ind.Server] = true
		// Delivery happens at the server's own round-3 block.
		if ind.Block != round3[ind.Server].Ref() {
			t.Fatalf("server %v delivered at block %v, want its round-3 block", ind.Server, ind.Block)
		}
	}
}

// TestMessagesNeverLeaveInterpreter asserts the compression claim at the
// API level: interpreting materializes messages (counted in metrics) with
// no transport involved at all.
func TestMessagesNeverLeaveInterpreter(t *testing.T) {
	h := dagtest.NewHarness(4)
	m := &metrics.Metrics{}
	it := New(brb.Protocol{}, 4, 1, nil, WithMetrics(m))
	h.Round(map[int][]block.Request{0: {{Label: "ℓ1", Data: []byte("v")}}})
	for r := 0; r < 3; r++ {
		h.Round(nil)
	}
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	if m.Get(metrics.MsgsMaterialized) == 0 {
		t.Fatal("no messages materialized")
	}
	if m.Get(metrics.BlocksInterpreted) != int64(h.DAG.Len()) {
		t.Fatalf("interpreted %d blocks, DAG has %d", m.Get(metrics.BlocksInterpreted), h.DAG.Len())
	}
	if m.Get(metrics.WireMessages) != 0 || m.Get(metrics.WireBytes) != 0 {
		t.Fatal("interpretation touched the wire")
	}
	// What it holds on to is published as gauges: four chains delivered,
	// their four tombstones became one retired label, and of the ECHO and
	// READY records only the READYs of round 2 are left — the last block
	// of round 3 read them, and the next block releases them.
	st := it.stats
	if st != (Stats{RetiredLabels: 1, OutMessages: 4, HoldingBlocks: 4}) ||
		m.Get(metrics.InstancesLive) != 0 || m.Get(metrics.InstancesRetired) != 0 || m.Get(metrics.LabelsRetired) != 1 ||
		m.Get(metrics.OutMessagesHeld) != 4 || m.Get(metrics.BlocksHolding) != 4 {
		t.Fatalf("stats %+v, gauges live %d, tombstones %d, retired %d, held %d, holding %d", st,
			m.Get(metrics.InstancesLive), m.Get(metrics.InstancesRetired), m.Get(metrics.LabelsRetired),
			m.Get(metrics.OutMessagesHeld), m.Get(metrics.BlocksHolding))
	}
	// Counted with the release, as the last block (s3's of round 3) came in:
	// the other chains, at round 3, had read all of s3's and not one
	// another's round-3 blocks; s3's, at round 2, had rounds 2 and 3 of the
	// three others to read.
	if unread := it.ChainUnread(); !slices.Equal(unread, []int64{2, 2, 2, 6}) {
		t.Fatalf("unread per chain %v, want [2 2 2 6]", unread)
	}
}

// TestInterpreterGauges: the gauges are stored, not added — after every
// block they equal Stats, and they fall when the interpreter lets go — and
// the per-builder lag is one sample per builder: zeros before a block is
// interpreted, and always without metrics.
func TestInterpreterGauges(t *testing.T) {
	h := dagtest.NewHarness(4)
	h.Round(map[int][]block.Request{0: {{Label: "ℓ1", Data: []byte("v")}}})
	for r := 0; r < 5; r++ {
		h.Round(nil)
	}
	m := &metrics.Metrics{}
	it, plain := New(brb.Protocol{}, 4, 1, nil, WithMetrics(m)), New(brb.Protocol{}, 4, 1, nil)
	if !slices.Equal(it.ChainUnread(), []int64{0, 0, 0, 0}) {
		t.Fatalf("lag before any block was interpreted: %v", it.ChainUnread())
	}
	var peak int64
	for _, b := range h.DAG.Blocks() {
		if err := errors.Join(it.AddBlock(b), plain.AddBlock(b)); err != nil {
			t.Fatal(err)
		}
		st := it.stats
		got := Stats{
			LiveInstances: int(m.Get(metrics.InstancesLive)), Tombstones: int(m.Get(metrics.InstancesRetired)),
			RetiredLabels: int(m.Get(metrics.LabelsRetired)), OutMessages: int(m.Get(metrics.OutMessagesHeld)),
			HoldingBlocks: int(m.Get(metrics.BlocksHolding)),
		}
		if got != st {
			t.Fatalf("gauges %+v, stats %+v", got, st)
		}
		peak = max(peak, m.Get(metrics.OutMessagesHeld))
	}
	if held := m.Get(metrics.OutMessagesHeld); held != 0 || peak < 4 {
		t.Fatalf("out-messages held: %d at the end, %d at the peak", held, peak)
	}
	var samples []string
	CollectChainUnread(it.ChainUnread)(func(s metrics.Metric) {
		samples = append(samples, fmt.Sprintf("%s%v=%v", s.Name, s.Labels, s.Value))
	})
	if len(samples) != 4 || samples[3] != "interpret_chain_unread_blocks[[builder 3]]=6" {
		t.Fatalf("lag samples %v of %v", samples, it.ChainUnread())
	}
	if !slices.Equal(plain.ChainUnread(), []int64{0, 0, 0, 0}) {
		t.Fatalf("an interpreter without metrics published %v", plain.ChainUnread())
	}
}

// topoOrder returns a topological order of d: at each step choose picks
// the next block among the eligible ones, given in insertion order.
func topoOrder(d *dag.DAG, choose func(eligible []*block.Block) *block.Block) []*block.Block {
	remaining := append([]*block.Block(nil), d.Blocks()...)
	present := make(map[block.Ref]bool, len(remaining))
	for _, e := range d.Base() {
		present[e.Ref] = true
	}
	var order []*block.Block
	for len(remaining) > 0 {
		var eligible []*block.Block
		for _, b := range remaining {
			ok := true
			for _, p := range b.Preds {
				ok = ok && present[p]
			}
			if ok {
				eligible = append(eligible, b)
			}
		}
		b := choose(eligible)
		order = append(order, b)
		present[b.Ref()] = true
		remaining = slices.DeleteFunc(remaining, func(r *block.Block) bool { return r == b })
	}
	return order
}

// randomTopoOrder returns a random topological order of d's blocks.
func randomTopoOrder(d *dag.DAG, rng *rand.Rand) []*block.Block {
	return topoOrder(d, func(eligible []*block.Block) *block.Block {
		return eligible[rng.Intn(len(eligible))]
	})
}

// buildContentiousDAG builds a DAG with multiple labels, an equivocating
// server, and interleaved requests — a worst case for order sensitivity.
func buildContentiousDAG(t *testing.T) *dagtest.Harness {
	t.Helper()
	h := dagtest.NewHarness(4)
	h.Round(map[int][]block.Request{
		0: {{Label: "a", Data: []byte("va")}},
		1: {{Label: "b", Data: []byte("vb")}},
	})
	h.Round(map[int][]block.Request{
		2: {{Label: "c", Data: []byte("vc")}},
	})
	// Server 3 equivocates: a fork of its seq-2 block with different
	// requests, visible to others.
	forkA := h.Next(3, []block.Ref{h.Tip(0)})
	forkB := h.Seal(3, 2, []block.Ref{h.DAG.ByBuilder(3)[1].Ref(), h.Tip(1)},
		block.Request{Label: "a", Data: []byte("evil")})
	h.Insert(forkB)
	// Correct servers reference both forks.
	h.Next(0, []block.Ref{forkA.Ref(), forkB.Ref()})
	h.Next(1, []block.Ref{forkA.Ref(), forkB.Ref()})
	h.Round(nil)
	h.Round(nil)
	return h
}

// TestInterpretationIndependence verifies Lemma 4.2: interpreting the same
// DAG in different eligible orders — as different servers with different
// arrival schedules would — yields identical PIs states and identical
// out-buffers at every block, for every label.
func TestInterpretationIndependence(t *testing.T) {
	h := buildContentiousDAG(t)
	labels := []types.Label{"a", "b", "c"}

	reference := New(brb.Protocol{}, 4, 1, nil)
	if err := reference.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		other := New(brb.Protocol{}, 4, 1, nil)
		for _, b := range randomTopoOrder(h.DAG, rng) {
			if err := other.AddBlock(b); err != nil {
				t.Fatal(err)
			}
		}
		for _, b := range h.DAG.Blocks() {
			for _, label := range labels {
				d1, ok1 := reference.StateDigest(b.Ref(), label)
				d2, ok2 := other.StateDigest(b.Ref(), label)
				if ok1 != ok2 || !bytes.Equal(d1, d2) {
					t.Fatalf("trial %d: block %v label %s: digests differ", trial, b.Ref(), label)
				}
				m1 := reference.OutMessages(b.Ref(), label)
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

// TestPrefixExtension verifies the ⩽-monotonicity used throughout the
// paper's proofs: interpreting a prefix G then extending to G' gives the
// same states as interpreting G' from scratch.
func TestPrefixExtension(t *testing.T) {
	h := dagtest.NewHarness(4)
	h.Round(map[int][]block.Request{0: {{Label: "x", Data: []byte("v")}}})
	h.Round(nil)
	prefix := snapshot(t, h)
	h.Round(nil)
	h.Round(nil)

	incremental := New(brb.Protocol{}, 4, 1, nil)
	if err := incremental.InterpretDAG(prefix); err != nil {
		t.Fatal(err)
	}
	if err := incremental.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	fresh := New(brb.Protocol{}, 4, 1, nil)
	if err := fresh.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	for _, b := range h.DAG.Blocks() {
		d1, ok1 := incremental.StateDigest(b.Ref(), "x")
		d2, ok2 := fresh.StateDigest(b.Ref(), "x")
		if ok1 != ok2 || !bytes.Equal(d1, d2) {
			t.Fatalf("block %v: incremental and fresh interpretation differ", b.Ref())
		}
	}
}

// failingJournal answers for released rows from blocks, the DAG's rows in
// insertion order, except row fail, which it cannot read back.
type failingJournal struct {
	blocks []*block.Block
	fail   int
}

var errUnreadable = errors.New("unreadable record")

func (j failingJournal) Block(row int, _ []block.Ref) (*block.Block, error) {
	if row == j.fail {
		return nil, errUnreadable
	}
	return j.blocks[row], nil
}

// TestInterpretDAGFailsOnAnUnreadableRow: a released block the journal cannot
// read back is InterpretDAG's error — not the end of the DAG, which would
// leave every block after it uninterpreted and say nothing.
func TestInterpretDAGFailsOnAnUnreadableRow(t *testing.T) {
	const n, fail = 4, 5
	h := dagtest.NewHarness(n)
	h.Round(map[int][]block.Request{0: {{Label: "x", Data: []byte("v")}}})
	for r := 0; r < 5; r++ {
		h.Round(nil)
	}
	blocks := h.DAG.Blocks()
	d := dag.New(h.Roster)
	d.SetJournal(failingJournal{blocks: blocks, fail: fail})
	for _, b := range blocks {
		if err := d.InsertVerified(b); err != nil {
			t.Fatal(err)
		}
	}
	d.Release(slices.Repeat([]uint64{1 << 20}, n))
	it := New(brb.Protocol{}, n, 1, nil, Over(d))
	if err := it.InterpretDAG(d); !errors.Is(err, errUnreadable) || countInterpreted(it, blocks) != fail {
		t.Fatalf("InterpretDAG returned %v with %d of %d blocks interpreted, want the journal's error after %d",
			err, countInterpreted(it, blocks), len(blocks), fail)
	}
}

// --- Lemma 4.3: the interpreted DAG is an authenticated perfect link ---

// linkFixture embeds courier and runs rounds until quiescence.
func linkFixture(t *testing.T, rounds int, reqs map[int][]block.Request) (*dagtest.Harness, *[]Indication) {
	t.Helper()
	h := dagtest.NewHarness(4)
	onInd, inds := collectInds()
	it := New(courier.Protocol{}, 4, 1, onInd)
	h.Round(reqs)
	for r := 0; r < rounds; r++ {
		h.Round(nil)
	}
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	return h, inds
}

// TestLinkReliableDelivery: Lemma 4.3(1) — a message sent between correct
// servers is eventually received, i.e. the courier indication appears at
// the receiver.
func TestLinkReliableDelivery(t *testing.T) {
	_, inds := linkFixture(t, 3, map[int][]block.Request{
		1: {{Label: "ℓ", Data: courier.EncodeRequest(2, []byte("hello"))}},
	})
	var hits int
	for _, ind := range *inds {
		if ind.Server != 2 {
			continue
		}
		from, data := courierIndication(t, ind.Value)
		if from == 1 && bytes.Equal(data, []byte("hello")) {
			hits++
		}
	}
	if hits != 1 {
		t.Fatalf("receiver saw the message %d times, want exactly 1 (reliable delivery + no duplication)", hits)
	}
}

// TestLinkNoDuplication: Lemma 4.3(2) — running many more rounds after
// delivery must not deliver the message again.
func TestLinkNoDuplication(t *testing.T) {
	_, inds := linkFixture(t, 10, map[int][]block.Request{
		0: {{Label: "ℓ", Data: courier.EncodeRequest(3, []byte("once"))}},
	})
	count := 0
	for _, ind := range *inds {
		if ind.Server == 3 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("message delivered %d times, want 1", count)
	}
}

// TestLinkAuthenticity: Lemma 4.3(3) — every received message names its
// true sender: the builder of the block whose interpretation emitted it.
// A byzantine server can inject requests but cannot make its messages
// carry another server's identity.
func TestLinkAuthenticity(t *testing.T) {
	// Byzantine server 3 embeds a request; the resulting courier
	// message must arrive with sender s3, never any other identity.
	_, inds := linkFixture(t, 3, map[int][]block.Request{
		3: {{Label: "ℓ", Data: courier.EncodeRequest(0, []byte("i am legit"))}},
	})
	for _, ind := range *inds {
		if ind.Server != 0 {
			continue
		}
		from, _ := courierIndication(t, ind.Value)
		if from != 3 {
			t.Fatalf("message attributed to %v, want the true sender s3", from)
		}
	}
}

// TestEquivocationForkSplitsState: interpreting an equivocator's two forks
// yields two independent instance states (paper Section 4's discussion of
// byzantine influence).
func TestEquivocationForkSplitsState(t *testing.T) {
	h := dagtest.NewHarness(4)
	it := New(brb.Protocol{}, 4, 1, nil)
	h.Round(nil)
	// Server 3 forks at seq 1 with different requests.
	forkA := h.Next(3, nil, block.Request{Label: "ℓ", Data: []byte("a")})
	forkB := h.Seal(3, 1, []block.Ref{h.DAG.ByBuilder(3)[0].Ref()},
		block.Request{Label: "ℓ", Data: []byte("b")})
	h.Insert(forkB)
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	if _, ok := it.StateDigest(forkA.Ref(), "ℓ"); !ok {
		t.Fatal("fork A state missing")
	}
	if _, ok := it.StateDigest(forkB.Ref(), "ℓ"); !ok {
		t.Fatal("fork B state missing")
	}
	// The two forks materialize conflicting messages: ECHO a vs ECHO b.
	outA := it.OutMessages(forkA.Ref(), "ℓ")
	outB := it.OutMessages(forkB.Ref(), "ℓ")
	if len(outA) == 0 || len(outB) == 0 {
		t.Fatal("forks emitted nothing")
	}
	if protocol.Compare(outA[0], outB[0]) == 0 {
		t.Fatal("forks emitted identical messages despite different requests")
	}
}

// TestDuplicateMessageAcrossForksCollapses: when an equivocator's two
// forks materialize the identical message, a correct block referencing
// both forks receives it once (set semantics of Ms[in], Algorithm 2
// line 9).
func TestDuplicateMessageAcrossForksCollapses(t *testing.T) {
	h := dagtest.NewHarness(4)
	onInd, inds := collectInds()
	it := New(courier.Protocol{}, 4, 1, onInd)
	h.Round(nil)
	// Both forks carry the identical request — identical message.
	req := block.Request{Label: "ℓ", Data: courier.EncodeRequest(0, []byte("dup?"))}
	forkA := h.Next(3, nil, req)
	forkB := h.Seal(3, 1, []block.Ref{h.DAG.ByBuilder(3)[0].Ref()}, req)
	h.Insert(forkB)
	// Server 0 references both forks in one block.
	h.Next(0, []block.Ref{forkA.Ref(), forkB.Ref()})
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, ind := range *inds {
		if ind.Server == 0 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("identical forked message delivered %d times, want 1", count)
	}
}

func TestAddBlockRequiresEligibility(t *testing.T) {
	h := dagtest.NewHarness(2)
	g := h.Genesis(0)
	child := h.Next(0, nil)
	it := New(brb.Protocol{}, 2, 0, nil)
	if err := it.AddBlock(child); err == nil {
		t.Fatal("interpreting child before parent succeeded")
	}
	if err := it.AddBlock(g); err != nil {
		t.Fatal(err)
	}
	if err := it.AddBlock(child); err != nil {
		t.Fatal(err)
	}
}

func TestAddBlockIdempotent(t *testing.T) {
	h := dagtest.NewHarness(2)
	g := h.Genesis(0, block.Request{Label: "ℓ", Data: []byte("v")})
	m := &metrics.Metrics{}
	it := New(brb.Protocol{}, 2, 0, nil, WithMetrics(m))
	for i := 0; i < 3; i++ {
		if err := it.AddBlock(g); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.Get(metrics.BlocksInterpreted); got != 1 {
		t.Fatalf("block interpreted %d times", got)
	}
}

// TestParallelInstancesIndependent: requests for many labels in the same
// blocks advance independent instances — the "instances in parallel for
// free" claim. Each label's broadcast must deliver exactly once per
// server, and instance states for different labels must not interfere.
func TestParallelInstancesIndependent(t *testing.T) {
	const labels = 8
	h := dagtest.NewHarness(4)
	onInd, inds := collectInds()
	it := New(brb.Protocol{}, 4, 1, onInd)

	reqs := make(map[int][]block.Request)
	for i := 0; i < labels; i++ {
		label := types.Label(fmt.Sprintf("inst-%d", i))
		server := i % 4
		reqs[server] = append(reqs[server], block.Request{
			Label: label, Data: []byte(fmt.Sprintf("v%d", i)),
		})
	}
	h.Round(reqs)
	for r := 0; r < 3; r++ {
		h.Round(nil)
	}
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}

	delivered := make(map[string]int)
	for _, ind := range *inds {
		delivered[fmt.Sprintf("%s@%v=%s", ind.Label, ind.Server, ind.Value)]++
	}
	for i := 0; i < labels; i++ {
		for s := 0; s < 4; s++ {
			key := fmt.Sprintf("inst-%d@s%d=v%d", i, s, i)
			if delivered[key] != 1 {
				t.Fatalf("delivery %q happened %d times, want 1", key, delivered[key])
			}
		}
	}
	if len(*inds) != labels*4 {
		t.Fatalf("total indications %d, want %d", len(*inds), labels*4)
	}
}

// TestDoneInstancesRetire: an instance that reports Done is dropped and
// whatever the label is sent afterwards is discarded, without disturbing
// the indications it made. (That discarding changes no indication is
// Theorem 5.1's business: the differential test in internal/direct runs P
// with nothing ever retired and compares.)
func TestDoneInstancesRetire(t *testing.T) {
	h := dagtest.NewHarness(4)
	onInd, inds := collectInds()
	it := New(brb.Protocol{}, 4, 1, onInd)
	h.Round(map[int][]block.Request{0: {{Label: "ℓ", Data: []byte("v")}}})
	for r := 0; r < 5; r++ {
		h.Round(nil)
	}
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	if len(*inds) != 4 {
		t.Fatalf("indications = %d, want 4", len(*inds))
	}
	// An instance runs from the request (server 0) or the first ECHO (the
	// others, round 1) until its chain delivers in round 3: from there on
	// the digest reports absence, at the tips and — replayed — at the
	// blocks behind them.
	for _, b := range h.DAG.Blocks() {
		running := b.Seq < 3 && (b.Seq > 0 || b.Builder == 0)
		if _, ok := it.StateDigest(b.Ref(), "ℓ"); ok != running {
			t.Fatalf("block %v (seq %d): instance state present = %v", b.Ref(), b.Seq, ok)
		}
	}
	// The READYs of round 3 reached tombstones and were answered by nothing.
	for s := 0; s < 4; s++ {
		if out := it.OutMessages(h.Tip(s), "ℓ"); len(out) != 0 {
			t.Fatalf("server %d emitted for %v after delivering", s, out)
		}
	}
}

// TestGenesisWithPredsInterprets: a genesis block referencing other
// servers' blocks (allowed by Definition 3.3) receives their messages.
func TestGenesisWithPredsInterprets(t *testing.T) {
	h := dagtest.NewHarness(3)
	onInd, inds := collectInds()
	it := New(courier.Protocol{}, 3, 0, onInd)
	h.Genesis(0, block.Request{Label: "ℓ", Data: courier.EncodeRequest(1, []byte("late joiner"))})
	// Server 1's genesis arrives later and references server 0's.
	h.GenesisWithPreds(1, []block.Ref{h.Tip(0)})
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	if len(*inds) != 1 || (*inds)[0].Server != 1 {
		t.Fatalf("indications = %v, want delivery at s1's genesis", *inds)
	}
}

// snapshot returns a DAG holding the blocks h's DAG holds now.
func snapshot(t *testing.T, h *dagtest.Harness) *dag.DAG {
	t.Helper()
	d := dag.New(h.Roster)
	for _, b := range h.DAG.Blocks() {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// StateDigest returns the deterministic digest of B.PIs[ℓ] — the state of
// the simulated instance ℓ of B's builder after interpreting B — or false if
// the block is uninterpreted, no ancestor ran the instance, or it was Done:
// what the tests compare when they hold two interpretations to Lemma 4.2.
func (it *Interpreter) StateDigest(ref block.Ref, label types.Label) ([]byte, bool) {
	if _, st := it.at(ref, true); st != nil && st.pis[label] != nil {
		return st.pis[label].StateDigest(), true
	}
	return nil, false
}

// countInterpreted counts the blocks of blocks it has interpreted.
func countInterpreted(it *Interpreter, blocks []*block.Block) int {
	n := 0
	for _, b := range blocks {
		if it.Interpreted(b.Ref()) {
			n++
		}
	}
	return n
}

// courierIndication parses a courier indication: the sender and the payload.
func courierIndication(t *testing.T, ind []byte) (types.ServerID, []byte) {
	t.Helper()
	r := wire.NewReader(ind)
	from, data := types.ServerID(r.Uint16()), r.VarBytes()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	return from, data
}
