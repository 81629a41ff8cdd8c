// Package interpret implements Algorithm 2 of the paper: interpreting a
// deterministic protocol P embedded in a block DAG.
//
// The key task is to "get messages from one block and give them to the
// next block". For every block B and every protocol instance ℓ the
// interpreter tracks
//
//   - B.PIs[ℓ]      — the process instance of P(ℓ) of the server which
//     built B, advanced from B.parent's instance, and
//   - B.Ms[in/out,ℓ] — the messages materialized at B: out-going messages
//     emitted by B's instances, and in-going messages
//     collected from the out-buffers of the blocks B
//     brings into its chain's ancestry, addressed to B.n.
//
// A reference includes its ancestry (paper Section 7, implicit block
// inclusion): B reads every block below it that no earlier block of its
// builder's chain had below it — its predecessors and whatever they cite
// that the chain has not consumed yet. Builders therefore cite their
// parent and the DAG's tips, not every block they have seen (package
// gossip), and a block that cites each block its builder inserted exactly
// once — the paper's Algorithm 1, and every journal written before this
// rule — reads exactly its predecessors. docs/ARCHITECTURE.md, "What a
// reference means".
//
// None of these messages is ever sent over a network: they are locally
// computed, functional results of P's determinism and the DAG structure
// (paper Section 4, "message compression"). Interpreting the DAG this way
// implements an authenticated perfect point-to-point link (Lemma 4.3),
// and every server interpreting the same DAG prefix reaches the identical
// state (Lemma 4.2) — properties the tests in this package verify.
//
// Interpretation is fully decoupled from building the DAG (Algorithm 1):
// an Interpreter only ever reads blocks, so it can run online — fed by the
// DAG's insert callback — or offline over a stored DAG.
//
// Memory model. Algorithm 2 line 4 copies the parent's instances into
// every block; this package keeps B.PIs only at the tip of each builder's
// chain, advances it in place and drops an instance the moment it reports
// Done, so live state is proportional to the instances still running, not
// to history. What every block retains is its out-buffer (future blocks
// read it: one slice ordered by label, a broadcast one record in it, the
// payloads immutable and shared — package protocol), a link to its parent
// and its ancestry watermark. By Lemma 4.2 everything else is a pure
// function of the DAG and recomputed when asked for: a block whose
// instances have moved on down the chain — an equivocating block's parent,
// a historic block asked for its StateDigest — gets them by replaying its
// builder's chain (rebuild), and a replay or InMessages re-derives
// B.Ms[in, ℓ] by walking to the block's sources again (newAncestry) and
// reading their out-buffers.
// docs/ARCHITECTURE.md, "Interpreter memory model", has the full account.
package interpret

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/metrics"
	"blockdag/internal/protocol"
	"blockdag/internal/types"
)

// ErrNotEligible reports an attempt to interpret a block before all of its
// predecessors were interpreted. Algorithm 2 only picks eligible blocks:
// I[B_i] must hold for every B_i ∈ B.preds.
var ErrNotEligible = errors.New("interpret: block has uninterpreted predecessors")

// Indication is one indication i ∈ Inds_P surfaced during interpretation:
// the simulated process instance of Server for instance Label indicated
// Value while interpreting block Block (Algorithm 2 lines 13–14).
type Indication struct {
	Label  types.Label
	Value  []byte
	Server types.ServerID
	Block  block.Ref
}

// Option configures an Interpreter.
type Option func(*Interpreter)

// WithMetrics attaches metric counters.
func WithMetrics(m *metrics.Metrics) Option {
	return func(it *Interpreter) { it.metrics = m }
}

// instances is B.PIs: every process instance a builder's chain has started
// up to block B, by label. A nil entry is the tombstone of an instance that
// reported Done: its state is dropped and what the label is sent from then
// on discarded (protocol.Process.Done; the paper's Section 7 memory limit).
type instances map[types.Label]protocol.Process

// blockState is the interpretation state attached to one block.
type blockState struct {
	blk    *block.Block
	parent *blockState // state of blk.parent; nil for genesis blocks

	// pis is B.PIs while this block is the tip of its chain, nil once a
	// child has taken the table over to advance it in place ("PIs := copy
	// parent.PIs", Algorithm 2 line 4, without the copy). A second child
	// — an equivocation — finds nil here and rebuilds.
	pis instances

	// out is B.Ms[out, ·]: messages emitted at this block, ordered by label
	// and in emission order within one, a broadcast held as the one record
	// the instance emitted. Future blocks referencing this one read from
	// here, and the rebuild path replays them as inputs.
	out []protocol.Message

	// anc is the ancestry watermark of this block: anc[builder] holds 1 +
	// the highest sequence number of that builder found in the block's
	// ancestry (itself included), 0 for none — the per-builder join of the
	// predecessors' vectors, the same causal summary the DAG keeps. It is
	// also what the chain has consumed: every block at or above the
	// parent's anc is new to the chain, every block of a correct builder
	// below it was read at an earlier chain block.
	anc []uint64

	// seeded marks a pruned-history stand-in (SeedBase): blk is nil,
	// seedBuilder/seedSeq anchor its chain position so the first live
	// block above the horizon finds its parent.
	seeded      bool
	seedBuilder types.ServerID
	seedSeq     uint64

	// visit stamps the newAncestry walk that last reached this state.
	visit uint64
}

// Interpreter executes Algorithm 2 incrementally: AddBlock interprets one
// eligible block. It is a deterministic state machine — not safe for
// concurrent use; the owning server serializes access.
type Interpreter struct {
	proto   protocol.Protocol
	n, f    int
	onInd   func(Indication)
	metrics *metrics.Metrics

	states map[block.Ref]*blockState
	stats  Stats

	// visits numbers the newAncestry walks; sources and stack are their
	// scratch space, so a walk allocates nothing.
	visits         uint64
	sources, stack []*blockState
}

// New creates an interpreter for protocol P in a system of n servers
// tolerating f byzantine ones. onInd, if non-nil, receives every
// indication of every simulated server — the shim filters for its own
// (Algorithm 3 line 8).
func New(proto protocol.Protocol, n, f int, onInd func(Indication), opts ...Option) *Interpreter {
	it := &Interpreter{
		proto:  proto,
		n:      n,
		f:      f,
		onInd:  onInd,
		states: make(map[block.Ref]*blockState),
	}
	for _, opt := range opts {
		opt(it)
	}
	return it
}

// SeedBase registers pruned-history stand-ins so a snapshot-restored
// interpreter accepts blocks whose predecessors were pruned. Each base
// entry gets an empty block state: eligible as a predecessor, carrying
// no messages and no instances — the effects of pruned blocks live in
// the restored application state, not in re-interpretation. horizon is
// the per-builder first live sequence number; it seeds the stand-ins'
// ancestry watermarks so message collection never reaches below the prune
// line.
//
// Instances whose delivery straddles the horizon do not resume: a
// fresh instance starts at the first live chain block. The deployment
// contract (prune only behind quiescent points) makes that safe.
// SeedBase must run before any AddBlock.
func (it *Interpreter) SeedBase(entries []dag.Base, horizon map[types.ServerID]uint64) error {
	if len(it.states) > 0 {
		return errors.New("interpret: SeedBase on a non-empty interpreter")
	}
	var below []uint64
	for id, seq := range horizon {
		below = raise(below, id, seq)
	}
	for _, e := range entries {
		it.states[e.Ref] = &blockState{
			seeded: true, seedBuilder: e.Builder, seedSeq: e.Seq,
			anc: raise(slices.Clone(below), e.Builder, e.Seq+1),
		}
	}
	return nil
}

// raise lifts anc[builder] to at least to, widening the vector to reach it.
func raise(anc []uint64, builder types.ServerID, to uint64) []uint64 {
	if int(builder) >= len(anc) {
		anc = append(anc, make([]uint64, int(builder)+1-len(anc))...)
	}
	anc[builder] = max(anc[builder], to)
	return anc
}

// Interpreted reports I[B]: whether the block was already interpreted.
func (it *Interpreter) Interpreted(ref block.Ref) bool {
	_, ok := it.states[ref]
	return ok
}

// Blocks returns the number of blocks interpreted so far.
func (it *Interpreter) Blocks() int { return len(it.states) }

// Stats counts what the interpreter holds beyond the blocks themselves:
// LiveInstances follows the labels still running, the other two every label
// ever run. WithMetrics publishes them as gauges after every block.
type Stats struct {
	LiveInstances int // process instances in the chain-tip tables
	Tombstones    int // table entries of instances retired after Done
	OutMessages   int // records in the blocks' out-buffers, a broadcast being one
}

// Stats returns the current counts.
func (it *Interpreter) Stats() Stats { return it.stats }

// AddBlock interprets block b (Algorithm 2 lines 4–12). Every predecessor
// must have been interpreted already — feeding blocks in any topological
// order of the DAG satisfies this, and by Lemma 4.2 all such orders yield
// the same states. Re-adding an interpreted block is a no-op.
func (it *Interpreter) AddBlock(b *block.Block) error {
	ref := b.Ref()
	if it.Interpreted(ref) {
		return nil
	}

	// Locate the parent (same builder, seq-1) among the predecessors —
	// DAG validity guarantees exactly one for non-genesis blocks — and join
	// their ancestry watermarks into this block's.
	anc := make([]uint64, int(b.Builder)+1, max(int(b.Builder)+1, it.n))
	var parent *blockState
	for _, p := range b.Preds {
		ps, ok := it.states[p]
		if !ok {
			return fmt.Errorf("%w: block %v missing pred %v", ErrNotEligible, ref, p)
		}
		if ps.blk != nil && b.ParentOf(ps.blk) {
			parent = ps
		} else if ps.seeded && ps.seedBuilder == b.Builder && b.Seq == ps.seedSeq+1 {
			// The parent is a pruned-history stand-in: it anchors the
			// chain and its consumption watermark but carries no
			// instances — P restarts fresh above the horizon.
			parent = ps
		}
		for c, w := range ps.anc {
			anc = raise(anc, types.ServerID(c), w)
		}
	}

	st := &blockState{blk: b, parent: parent, anc: raise(anc, b.Builder, b.Seq+1)}

	// Line 4: B.PIs starts as the parent's. Every honest block is the
	// only child of its parent and takes the table over; a chain root
	// (genesis, or the first block above a pruned-history stand-in)
	// starts an empty one.
	switch {
	case parent == nil || parent.seeded:
		st.pis = make(instances)
	case parent.pis != nil:
		st.pis, parent.pis = parent.pis, nil
	default:
		st.pis = it.rebuild(parent, nil) // a second table: its instances count
	}
	it.advance(st, st.pis, true, nil)

	it.states[ref] = st // line 12: I[B] := true
	it.metrics.AddBlocksInterpreted(1)
	it.metrics.SetInterpreterState(it.stats.LiveInstances, it.stats.Tombstones, it.stats.OutMessages)
	return nil
}

// byLabel orders messages by label and, within a label, by <M.
func byLabel(a, b protocol.Message) int {
	if c := strings.Compare(string(a.Label), string(b.Label)); c != 0 {
		return c
	}
	return protocol.Compare(a, b)
}

// outFor returns one label's run of a block's out-buffer.
func outFor(out []protocol.Message, label types.Label) []protocol.Message {
	lo, _ := slices.BinarySearchFunc(out, label, func(m protocol.Message, l types.Label) int {
		return strings.Compare(string(m.Label), string(l))
	})
	hi := lo
	for hi < len(out) && out[hi].Label == label {
		hi++
	}
	return out[lo:hi]
}

// inMessages collects B.Ms[in, ℓ] (Algorithm 2 lines 7–9) for every label,
// or for only one: the messages addressed to receiver in the out-buffers of
// sources, grouped by label and each label's in <M order. A broadcast
// record is addressed to every receiver and is taken as the message to
// this one, so order and set semantics are those of the n messages it
// stands for. The paper's in-buffer is a set: identical messages
// materialized via two sources (e.g. across an equivocator's forks)
// collapse to one.
func inMessages(receiver types.ServerID, sources []*blockState, only *types.Label) []protocol.Message {
	var in []protocol.Message
	for _, ps := range sources {
		out := ps.out
		if only != nil {
			out = outFor(out, *only)
		}
		for _, m := range out {
			if m.Receiver == receiver || m.Receiver == protocol.Everyone {
				m.Receiver = receiver
				in = append(in, m)
			}
		}
	}
	slices.SortFunc(in, byLabel)
	return slices.CompactFunc(in, func(a, b protocol.Message) bool { return byLabel(a, b) == 0 })
}

// sharePayloads stores an emitted payload whose bytes equal a payload the
// same step was fed as that slice — payloads are immutable, so nobody can
// tell — and a label's READY v is held once, not once per chain.
func sharePayloads(emitted, fed []protocol.Message) {
	for i := range emitted {
		for _, m := range fed {
			if bytes.Equal(emitted[i].Payload, m.Payload) {
				emitted[i].Payload = m.Payload
				break
			}
		}
	}
}

// advance runs Algorithm 2 lines 5–14 for block st on pis, its chain's
// instance table as the parent left it. Labels are independent instances,
// so it takes them one at a time, in sorted order to keep the trace
// canonical: the requests B.rs carries for ℓ in the order the block lists
// them (lines 5–6), then B.Ms[in, ℓ] in <M order (lines 10–11), then ℓ's
// indications, attributed to B.n (lines 13–14), and a tombstone in the
// table if ℓ's instance is Done.
//
// AddBlock calls it live, once per block: emitted messages are recorded in
// st.out and indications surfaced. rebuild calls it again for a block
// already interpreted, possibly for only one label: the steps are the
// same, but the out-buffer is already recorded and the indications
// already surfaced, so neither is repeated.
func (it *Interpreter) advance(st *blockState, pis instances, live bool, only *types.Label) {
	b := st.blk
	ref := b.Ref()
	reqs := make([]block.Request, 0, len(b.Requests))
	for _, rq := range b.Requests {
		if only == nil || rq.Label == *only {
			reqs = append(reqs, rq)
		}
	}
	slices.SortStableFunc(reqs, func(a, b block.Request) int {
		return strings.Compare(string(a.Label), string(b.Label))
	})
	in := inMessages(b.Builder, it.newAncestry(st), only)

	var emitted []protocol.Message
	for len(reqs) > 0 || len(in) > 0 {
		var label types.Label
		if len(in) == 0 || len(reqs) > 0 && reqs[0].Label <= in[0].Label {
			label = reqs[0].Label
		} else {
			label = in[0].Label
		}
		proc, started := pis[label]
		if !started {
			// No ancestor ran this instance. The paper assumes instances
			// running from the genesis block onwards; we create them
			// lazily on first request or message, as its Section 4
			// suggests for implementations.
			proc = it.proto.NewProcess(protocol.Config{Self: b.Builder, Label: label, N: it.n, F: it.f})
			pis[label] = proc
			it.stats.LiveInstances++
		}
		// EntropyAware instances receive a deterministic per-(block,
		// label) seed — the Section 7 de-randomization extension.
		if ea, ok := proc.(protocol.EntropyAware); ok {
			ea.SetEntropy(crypto.Hash(ref[:], []byte(label)))
		}

		// A nil proc is a tombstone: inputs after Done are discarded.
		mark, fed := len(emitted), in
		for ; len(reqs) > 0 && reqs[0].Label == label; reqs = reqs[1:] {
			if proc != nil {
				emitted = append(emitted, proc.Request(reqs[0].Data)...)
			}
		}
		for ; len(in) > 0 && in[0].Label == label; in = in[1:] {
			if proc != nil {
				emitted = append(emitted, proc.Receive(in[0])...)
			}
		}
		if proc == nil {
			continue
		}
		inds := proc.Indications()
		if proc.Done() {
			pis[label] = nil
			it.stats.LiveInstances--
			it.stats.Tombstones++
		}
		if !live {
			emitted = emitted[:mark]
			continue
		}
		sharePayloads(emitted[mark:], fed[:len(fed)-len(in)])
		for _, value := range inds {
			it.metrics.AddIndications(1)
			if it.onInd != nil {
				it.onInd(Indication{Label: label, Value: value, Server: b.Builder, Block: ref})
			}
		}
	}
	if len(emitted) > 0 {
		// B.Ms[out, ·]: materialized, never sent. Kept at its exact size.
		st.out = slices.Clone(emitted)
		it.stats.OutMessages += len(emitted)
		it.metrics.AddMsgsMaterialized(int64(protocol.Count(emitted, it.n)))
	}
}

// rebuild recomputes st's B.PIs — for every label, or for only one — after
// the table has moved on down the chain, by replaying the builder's chain
// from its root through advance. The retained out-buffers of each block's
// sources are the inputs, so the replay feeds every instance exactly what
// it was fed the first time and, P being deterministic, arrives at
// exactly the state it had (Lemma 4.2). The cost is one pass over the
// chain; only an equivocating block or an inspection query pays it.
func (it *Interpreter) rebuild(st *blockState, only *types.Label) instances {
	var chain []*blockState
	for s := st; s != nil && !s.seeded; s = s.parent {
		chain = append(chain, s)
	}
	pis := make(instances)
	for _, s := range slices.Backward(chain) {
		it.advance(s, pis, false, only)
	}
	return pis
}

// newAncestry collects the sources of block st (Algorithm 2 lines 7–9
// read their out-buffers): every block in its ancestry that its chain has
// not consumed yet. The chain has consumed what lies below the parent,
// which the parent's ancestry watermark summarizes: a block at or above it
// is new (and is read now, exactly once — no later chain block finds it
// above its own parent's watermark), the parent itself is read by its
// child, and a block below it is either in the parent's ancestry or, if
// its builder equivocated, a duplicate of a sequence number the chain has
// read already and is skipped. Skipped is not stopped at: a fork block can
// be the only path to a correct builder's new block, so the walk descends
// through anything whose own watermark is not dominated by the parent's —
// which no block in the parent's ancestry is, so the walk visits only
// blocks new to the chain and their predecessors. Every ancestor's state
// exists: a block is interpreted after its predecessors.
//
// The result is a function of the block's ancestry alone, so every
// interpretation order — and a replay, which is why it is not stored —
// computes the same sources (Lemma 4.2). For a builder that cites each
// block it inserts exactly once the new blocks are the direct
// predecessors. The slice is scratch space, valid until the next call.
func (it *Interpreter) newAncestry(st *blockState) []*blockState {
	var consumed []uint64
	if st.parent != nil {
		consumed = st.parent.anc
	}
	it.visits++
	sources, stack := it.sources[:0], append(it.stack[:0], st)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range s.blk.Preds {
			ps := it.states[p]
			if ps.visit == it.visits || ps.seeded {
				continue // seen, or a pruned-history stand-in: consumed by construction
			}
			ps.visit = it.visits
			if b := ps.blk; ps == st.parent || int(b.Builder) >= len(consumed) || b.Seq >= consumed[b.Builder] {
				sources = append(sources, ps)
			}
			if !dominated(ps.anc, consumed) {
				stack = append(stack, ps) // something below ps is new
			}
		}
	}
	it.sources, it.stack = sources, stack
	return sources
}

// dominated reports whether watermark a is at most b in every entry.
func dominated(a, b []uint64) bool {
	for c, w := range a {
		if w > 0 && (c >= len(b) || w > b[c]) {
			return false
		}
	}
	return true
}

// InterpretDAG interprets every block of d not yet interpreted, in d's
// insertion order (a topological order). This is the offline path: a
// stored DAG can be replayed at any time, independent of gossip. The DAG
// is iterated in place (dag.DAG.All) — no block-slice copy per call.
func (it *Interpreter) InterpretDAG(d *dag.DAG) error {
	for b := range d.All() {
		if err := it.AddBlock(b); err != nil {
			return err
		}
	}
	return nil
}

// OutMessages returns B.Ms[out, ℓ] in emission order, broadcasts spelled
// out receiver by receiver.
func (it *Interpreter) OutMessages(ref block.Ref, label types.Label) []protocol.Message {
	if st, ok := it.states[ref]; ok {
		if out := outFor(st.out, label); len(out) > 0 {
			return protocol.Expand(out, it.n)
		}
	}
	return nil
}

// InMessages returns B.Ms[in, ℓ] in <M order, derived from the out-buffers
// of the block's sources — exactly what the instance was fed.
func (it *Interpreter) InMessages(ref block.Ref, label types.Label) []protocol.Message {
	st, ok := it.states[ref]
	if !ok || st.seeded {
		return nil
	}
	return inMessages(st.blk.Builder, it.newAncestry(st), &label)
}

// OutLabels returns the labels with a non-empty out-buffer at the block,
// sorted.
func (it *Interpreter) OutLabels(ref block.Ref) []types.Label {
	var labels []types.Label
	if st, ok := it.states[ref]; ok {
		for _, m := range st.out {
			labels = append(labels, m.Label)
		}
	}
	return slices.Compact(labels)
}

// StateDigest returns the deterministic digest of B.PIs[ℓ] — the state of
// the simulated instance ℓ of B's builder after interpreting B. The second
// result is false if the block is uninterpreted, no ancestor of the block
// ever ran the instance, or it was Done by then. Asking about a block that
// is no longer the tip of its chain replays the chain for ℓ.
func (it *Interpreter) StateDigest(ref block.Ref, label types.Label) ([]byte, bool) {
	st, ok := it.states[ref]
	if !ok {
		return nil, false
	}
	pis := st.pis
	if pis == nil {
		held := it.stats
		pis = it.rebuild(st, &label)
		it.stats = held // the replayed table is dropped again
	}
	if proc := pis[label]; proc != nil {
		return proc.StateDigest(), true
	}
	return nil, false
}
