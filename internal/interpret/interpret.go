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
//     collected from the out-buffers of B's direct
//     predecessors addressed to B.n.
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
// payloads immutable and shared — package protocol), links to its parent
// and source blocks and, in implicit-inclusion mode, its watermarks. By
// Lemma 4.2 everything else is a pure function of the DAG and recomputed
// when asked for: a block whose instances have moved on down the chain —
// an equivocating block's parent, a historic block asked for its
// StateDigest — gets them by replaying its builder's chain (rebuild), and
// InMessages re-derives B.Ms[in, ℓ] from the sources' out-buffers.
// docs/ARCHITECTURE.md, "Interpreter memory model", has the full account.
package interpret

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
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

// WithImplicitInclusion switches message collection to the paper's
// Section 7 "implicit block inclusion" semantics: referencing a block
// implicitly includes its whole ancestry, so a block receives the messages
// of every ancestor not yet consumed on its own chain — not only its
// direct predecessors. Consumption is tracked with per-builder sequence
// watermarks, preserving exactly-once delivery between correct servers
// across restarts and sparse (tip-only) references.
//
// Must match the gossip side's CompressReferences (core wires both). One
// semantic difference to the explicit mode, tolerated by any BFT protocol
// P: when an equivocator's forks are first consumed, only branches visible
// at that point deliver; later-referenced duplicate-seq branches are
// skipped by the watermark.
func WithImplicitInclusion() Option {
	return func(it *Interpreter) { it.implicit = true }
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

	// sources are the blocks whose out-buffers feed this one (Algorithm 2
	// lines 7–9), kept so that a replay reads exactly what the first
	// interpretation read.
	sources []*blockState

	// out is B.Ms[out, ·]: messages emitted at this block, ordered by label
	// and in emission order within one, a broadcast held as the one record
	// the instance emitted. Future blocks referencing this one read from
	// here, and the rebuild path replays them as inputs.
	out []protocol.Message

	// coveredSeq (implicit-inclusion mode only) is the consumption
	// watermark of this block's chain: for each builder, the highest
	// sequence number whose out-messages this chain has received.
	coveredSeq map[types.ServerID]uint64

	// seeded marks a pruned-history stand-in (SeedBase): blk is nil,
	// seedBuilder/seedSeq anchor its chain position so the first live
	// block above the horizon finds its parent.
	seeded      bool
	seedBuilder types.ServerID
	seedSeq     uint64

	// anc (implicit-inclusion mode only) is the ancestry watermark of
	// this block: anc[builder] holds 1 + the highest sequence number of
	// that builder found in the block's ancestry (itself included), 0
	// for none. Joined from the predecessors' vectors at AddBlock — the
	// same incremental causal summary the DAG keeps — it lets
	// uncoveredAncestry enumerate the genuinely-uncovered blocks
	// chain-by-chain instead of walking the graph, as long as no
	// equivocation has been observed.
	anc []uint64
}

// chainSlot addresses one (builder, seq) position across the interpreted
// blocks; two states in one slot expose an equivocation.
type chainSlot struct {
	builder types.ServerID
	seq     uint64
}

// Interpreter executes Algorithm 2 incrementally: AddBlock interprets one
// eligible block. It is a deterministic state machine — not safe for
// concurrent use; the owning server serializes access.
type Interpreter struct {
	proto    protocol.Protocol
	n, f     int
	onInd    func(Indication)
	metrics  *metrics.Metrics
	implicit bool

	states map[block.Ref]*blockState
	stats  Stats

	// slots and anyFork (implicit-inclusion mode only) back the
	// uncoveredAncestry fast path: slots finds a builder's block by
	// sequence number; anyFork latches once two interpreted blocks
	// claim the same slot (or a parent-chain gap appears), after which
	// collection falls back to the exact pruned walk — the fast
	// enumeration and the walk provably agree only on fork-free
	// ancestries.
	slots   map[chainSlot]*blockState
	anyFork bool
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
// the per-builder first live sequence number; in implicit-inclusion
// mode it seeds the ancestry and consumption watermarks so message
// collection never reaches below the prune line.
//
// Instances whose delivery straddles the horizon do not resume: a
// fresh instance starts at the first live chain block. The deployment
// contract (prune only behind quiescent points) makes that safe.
// SeedBase must run before any AddBlock.
func (it *Interpreter) SeedBase(entries []dag.Base, horizon map[types.ServerID]uint64) error {
	if len(it.states) > 0 {
		return errors.New("interpret: SeedBase on a non-empty interpreter")
	}
	if len(entries) == 0 {
		return nil
	}
	width := 0
	for id, seq := range horizon {
		if seq > 0 && int(id)+1 > width {
			width = int(id) + 1
		}
	}
	for _, e := range entries {
		st := &blockState{seeded: true, seedBuilder: e.Builder, seedSeq: e.Seq}
		if it.implicit {
			anc := make([]uint64, width)
			for id, seq := range horizon {
				if int(id) < width {
					anc[id] = seq
				}
			}
			if int(e.Builder) < width && e.Seq+1 > anc[e.Builder] {
				anc[e.Builder] = e.Seq + 1
			}
			st.anc = anc
			st.coveredSeq = make(map[types.ServerID]uint64, len(horizon))
			for id, seq := range horizon {
				if seq > 0 {
					st.coveredSeq[id] = seq - 1
				}
			}
			if it.slots == nil {
				it.slots = make(map[chainSlot]*blockState)
			}
			it.slots[chainSlot{builder: e.Builder, seq: e.Seq}] = st
		}
		it.states[e.Ref] = st
	}
	return nil
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

	// Resolve predecessor states and locate the parent (same builder,
	// seq-1) among them; DAG validity guarantees exactly one for
	// non-genesis blocks.
	predRefs := dedupRefs(b.Preds)
	preds := make([]*blockState, 0, len(predRefs))
	var parent *blockState
	for _, p := range predRefs {
		ps, ok := it.states[p]
		if !ok {
			return fmt.Errorf("%w: block %v missing pred %v", ErrNotEligible, ref, p)
		}
		preds = append(preds, ps)
		if ps.blk != nil && b.ParentOf(ps.blk) {
			parent = ps
		} else if ps.seeded && ps.seedBuilder == b.Builder && b.Seq == ps.seedSeq+1 {
			// The parent is a pruned-history stand-in: it anchors the
			// chain (and, in implicit mode, the consumption watermark)
			// but carries no instances — P restarts fresh above the
			// horizon.
			parent = ps
		}
	}

	// Lines 7–9 read the out-buffers of the source blocks: the direct
	// predecessors (explicit mode), or the whole not-yet-consumed
	// ancestry (implicit-inclusion mode).
	st := &blockState{blk: b, parent: parent, sources: preds}
	if it.implicit {
		it.indexChain(st, preds)
		st.sources = it.uncoveredAncestry(st, preds, parent)
		st.coveredSeq = advanceWatermark(parent, st.sources)
	}

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
	in := inMessages(b.Builder, st.sources, only)

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

// indexChain computes st's ancestry watermark from its predecessors' —
// the per-builder join that mirrors the DAG's causal summary — and
// registers the block in the slot index, latching anyFork on an observed
// equivocation (duplicate slot) or parent-chain gap.
func (it *Interpreter) indexChain(st *blockState, preds []*blockState) {
	b := st.blk
	width := int(b.Builder) + 1
	for _, ps := range preds {
		if len(ps.anc) > width {
			width = len(ps.anc)
		}
	}
	anc := make([]uint64, width)
	for _, ps := range preds {
		for c, w := range ps.anc {
			if w > anc[c] {
				anc[c] = w
			}
		}
	}
	// For a well-formed chain the joined own-builder entry is exactly
	// Seq: the parent contributes Seq ((Seq-1)+1), a genesis block sees
	// nothing, and no higher own-chain block can already be an ancestor
	// of the newest one. Anything else is a fork (or a feed that skipped
	// the parent rule) — drop to the exact walk from here on.
	if anc[b.Builder] != b.Seq {
		it.anyFork = true
	}
	if anc[b.Builder] < b.Seq+1 {
		anc[b.Builder] = b.Seq + 1
	}
	st.anc = anc

	if it.slots == nil {
		it.slots = make(map[chainSlot]*blockState)
	}
	slot := chainSlot{builder: b.Builder, seq: b.Seq}
	if prior, taken := it.slots[slot]; taken {
		if prior != st {
			it.anyFork = true
		}
	} else {
		it.slots[slot] = st
	}
}

// uncoveredAncestry collects every ancestor block (direct predecessors
// included) not yet consumed by this block's chain, per the parent's
// watermark. Eligibility guarantees all ancestor states exist.
//
// While no equivocation has been observed, the ancestry watermark makes
// this a pure enumeration: for each builder, the uncovered blocks are
// exactly the sequence numbers between the consumption watermark and the
// ancestry watermark, found by slot lookup — no traversal, no visited
// set. Once a fork is known, collection falls back to the pruned
// backwards walk, which is the defining semantics. The two agree on every
// fork-free ancestry (a block's own parent chain is connected by
// Definition 3.3, so the consumed set stays ancestry-closed and
// chain-contiguous), which also makes the choice of path insert-order
// independent: a fork elsewhere in the DAG cannot change the result for a
// block whose own ancestry is clean.
func (it *Interpreter) uncoveredAncestry(st *blockState, preds []*blockState, parent *blockState) []*blockState {
	var base map[types.ServerID]uint64
	if parent != nil {
		base = parent.coveredSeq
	}
	if !it.anyFork {
		if collected, ok := it.enumerateUncovered(st, base); ok {
			return collected
		}
	}
	covered := func(s *blockState) bool {
		w, ok := base[s.blk.Builder]
		return ok && s.blk.Seq <= w
	}
	var collected []*blockState
	seen := make(map[block.Ref]struct{}, len(preds))
	stack := append([]*blockState(nil), preds...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.blk == nil {
			continue // pruned-history stand-in: consumed by construction
		}
		ref := s.blk.Ref()
		if _, dup := seen[ref]; dup {
			continue
		}
		seen[ref] = struct{}{}
		if covered(s) {
			continue
		}
		collected = append(collected, s)
		for _, pr := range dedupRefs(s.blk.Preds) {
			if ps, ok := it.states[pr]; ok {
				stack = append(stack, ps)
			}
		}
	}
	return collected
}

// enumerateUncovered is the fork-free fast path: list the blocks between
// the consumption and ancestry watermarks builder by builder. ok is false
// if a slot lookup comes up empty (an invariant break — never expected
// from a valid DAG feed); the caller then uses the walk.
func (it *Interpreter) enumerateUncovered(st *blockState, base map[types.ServerID]uint64) ([]*blockState, bool) {
	var collected []*blockState
	for c, hi := range st.anc {
		if hi == 0 {
			continue // no ancestor on this builder's chain
		}
		builder := types.ServerID(c)
		lo := uint64(0)
		if w, ok := base[builder]; ok {
			lo = w + 1
		}
		if builder == st.blk.Builder && hi == st.blk.Seq+1 {
			// The own entry includes the block itself; only its
			// ancestors are sources.
			hi--
		}
		for s := lo; s < hi; s++ {
			ps := it.slots[chainSlot{builder: builder, seq: s}]
			if ps == nil {
				return nil, false
			}
			if ps.seeded {
				continue // pruned-history stand-in: consumed by construction
			}
			collected = append(collected, ps)
		}
	}
	return collected, true
}

// advanceWatermark derives a block's consumption watermark from its
// parent's and the newly consumed blocks.
func advanceWatermark(parent *blockState, consumed []*blockState) map[types.ServerID]uint64 {
	wm := make(map[types.ServerID]uint64, len(consumed))
	if parent != nil {
		maps.Copy(wm, parent.coveredSeq)
	}
	for _, s := range consumed {
		if s.blk == nil {
			continue // seeded stand-in: its coverage is already in the parent's map
		}
		if cur, ok := wm[s.blk.Builder]; !ok || s.blk.Seq > cur {
			wm[s.blk.Builder] = s.blk.Seq
		}
	}
	return wm
}

// smallRefs bounds the linear duplicate scan; larger (byzantine-sized)
// lists go straight to the map so quadratic scans cannot be provoked.
const smallRefs = 16

// dedupRefs returns refs without repeats, first occurrences in order; a
// short duplicate-free list — the common case — as it is, unallocated.
func dedupRefs(refs []block.Ref) []block.Ref {
	if len(refs) <= smallRefs {
		clean := true
		for i := 1; i < len(refs) && clean; i++ {
			clean = !slices.Contains(refs[:i], refs[i])
		}
		if clean {
			return refs
		}
	}
	seen := make(map[block.Ref]struct{}, len(refs))
	out := make([]block.Ref, 0, len(refs))
	for _, r := range refs {
		if _, dup := seen[r]; dup {
			continue
		}
		seen[r] = struct{}{}
		out = append(out, r)
	}
	return out
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
	return inMessages(st.blk.Builder, st.sources, &label)
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
