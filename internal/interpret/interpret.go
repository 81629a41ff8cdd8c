// Package interpret implements Algorithm 2 of the paper: interpreting a
// deterministic protocol P embedded in a block DAG.
//
// The key task is to "get messages from one block and give them to the
// next block". For every block B and every protocol instance ℓ the
// interpreter tracks
//
//   - B.PIs[ℓ]      — the process instance of P(ℓ) of the server which
//     built B, advanced from B.parent's instance, and
//   - B.Ms[in/out,ℓ] — the messages materialized at B: those B's instances
//     emit, and those addressed to B.n in the out-buffers of the blocks B
//     brings into its chain's ancestry.
//
// A reference includes its ancestry (paper Section 7, implicit block
// inclusion): B reads every block below it that no earlier block of its
// builder's chain had below it, so builders cite their parent and the DAG's
// tips (package gossip), and a block that cites each block its builder
// inserted exactly once — the paper's Algorithm 1 — reads exactly its
// predecessors. docs/ARCHITECTURE.md, "What a reference means".
//
// None of these messages is ever sent over a network: they are locally
// computed, functional results of P's determinism and the DAG structure
// (paper Section 4, "message compression"). Interpreting the DAG this way
// implements an authenticated perfect point-to-point link (Lemma 4.3),
// and every server interpreting the same DAG prefix reaches the identical
// state (Lemma 4.2) — properties the tests in this package verify. An
// Interpreter only ever reads blocks, so it runs online, fed by the DAG's
// insert callback, or offline over a stored DAG.
//
// Memory model (docs/ARCHITECTURE.md, "Interpreter memory model"). Algorithm 2
// keeps B.PIs and B.Ms[out, ·] at every block for ever. Here everything is a
// cache of a pure function of the DAG (Lemma 4.2), kept in a slice addressed by
// the number the DAG gave each block; a block's parent, predecessors and
// ancestry watermark are the DAG's rows (Rows). B.PIs lives at the tip of each
// chain, is advanced in place and drops an instance when it reports Done; once
// every chain has, one entry of a retired set replaces the n tombstones. When
// the n chain tips have read a block (release) its out-buffer and its state
// go: its slot keeps one shared marker, and the same frontier tells the DAG
// which blocks' bytes it may let go (Frontier). A reader that finds the cache
// empty — a block extending a fork, an inspection of a block long passed —
// interprets the blocks afresh (replay): the one miss path, and the one that
// reads blocks back. A state holds no block, and below the frontier only a
// builder that forked keeps states: a replay reads the blocks from the rows —
// a DAG's, the released ones from its journal, or the interpreter's own (Over).
package interpret

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/graph"
	"blockdag/internal/keyset"
	"blockdag/internal/metrics"
	"blockdag/internal/protocol"
	"blockdag/internal/types"
)

// ErrNotEligible reports an attempt to interpret a block before all of its
// predecessors: Algorithm 2 only picks eligible blocks.
var ErrNotEligible = errors.New("interpret: block has uninterpreted predecessors")

// Indication is one indication i ∈ Inds_P: the simulated instance Label of
// Server indicated Value while interpreting Block (Algorithm 2 lines 13–14).
type Indication struct {
	Label  types.Label
	Value  []byte
	Server types.ServerID
	Block  block.Ref
}

// Option configures an Interpreter.
type Option func(*Interpreter)

// WithMetrics attaches metric counters (over metrics.Families).
func WithMetrics(m *metrics.Metrics) Option { return func(it *Interpreter) { it.metrics = m } }

// Rows is what an interpreter reads of a DAG: the number of a block's row,
// the row's ancestry watermark — entry x is 1 + the highest sequence number
// of builder x in the ancestry, the block included, 0 or absent for none —
// its predecessors' rows and its chain position; and, for a replay, the row's
// block (ReadRow), which the DAG may have to read back. *dag.DAG is one.
type Rows interface {
	Index(ref block.Ref) (int, bool)
	Summary(i int) []uint64
	PredsAt(i int) []int32
	Pos(i int) (types.ServerID, uint64)
	ReadRow(i int) (*block.Block, error)
}

// Over makes the interpreter one of d's blocks (AddBlock takes no others): it
// keeps its states by d's numbers, reads d's watermarks and predecessors, and
// holds no block — a replay reads them from d. Without it the interpreter
// numbers the blocks itself, as handed them, in rows of its own (ownRows).
// Either way release lets a block's state go once every chain has read it.
func Over(d Rows) Option { return func(it *Interpreter) { it.rows = d } }

// ownRows are the rows of an interpreter over no DAG: a graph of its own and
// the blocks it numbered, by row, which a replay reads — what a DAG keeps.
type ownRows struct {
	*graph.DAG[block.Ref]
	blocks []*block.Block
}

func (o *ownRows) ReadRow(i int) (*block.Block, error) { return o.blocks[i], nil }
func (o *ownRows) Pos(i int) (types.ServerID, uint64) {
	chain, seq := o.DAG.Pos(i)
	return types.ServerID(chain), seq
}

// instances is B.PIs: every process instance a builder's chain has started
// up to block B, by label. A nil entry is the tombstone of an instance that
// reported Done: its state is dropped and what the label is sent from then
// on discarded (protocol.Process.Done; the paper's Section 7 memory limit).
// A label in the retired set stands for one in every chain tip's table.
type instances map[types.Label]protocol.Process

// blockState is the interpretation state attached to one block: its row and
// chain position, pis and out while they are cached. It holds no block (the
// rows do) and points at no other state: release lets it go once every chain
// has read the block, and gone takes its slot.
type blockState struct {
	seq uint64 // with builder, below: the chain position
	// pis is B.PIs while this block is the tip of its chain, nil once a
	// child has taken the table over to advance it in place (Algorithm 2
	// line 4 without the copy). A second child — a fork — replays.
	pis instances
	// out is B.Ms[out, ·]: messages emitted at this block, ordered by label
	// and in emission order within one, a broadcast held as the one record
	// the instance emitted. released: every chain has read it, it is gone.
	out      []protocol.Message
	released bool
	// stand marks a stand-in: a pruned-history one (SeedBase), or in a
	// replay a block its DAG's journal no longer holds. It carries no
	// messages and no instances; its chain's next block starts afresh.
	stand   bool
	builder types.ServerID
	// num is the block's row. Its watermark (anc) is what the chain has read:
	// a block at or above the parent's is new to it, a correct builder's below.
	num   int32
	visit uint64 // stamps the newAncestry walk that last reached this state
}

// gone takes the slot of a block whose state the interpreter has released:
// gone[1] if the state held an out-buffer, released with it. The block is
// interpreted, and what its state held is a replay away. Shared by every
// interpreter of the process, so never written: a walk stamps no visit on it
// (newAncestry).
var gone = [2]*blockState{{}, {released: true}}

func (st *blockState) isGone() bool { return st == gone[0] || st == gone[1] }

// chain is one builder's chain: its tip — on the branch interpreted first,
// should the builder equivocate — whose anc is what the chain has read; the
// builder's blocks release has still to pass, in interpretation order: those
// holding an out-buffer and, until the builder forks, every one; and whether
// a block of it was interpreted off its chain's tip, a fork; and the most
// entries its tip's table has held since the table was made (shrunk).
type chain struct {
	tip    *blockState
	held   []*blockState // from head on; release pops at head
	head   int
	forked bool
	peak   int
}

// maxHeldKeep is the most entries a chain's queue keeps its array for once
// release has drained it below a quarter of that: a chain back from silence
// must not leave the backlog's array behind the few blocks left, and one
// that follows the load keeps its array, so appending to it allocates
// nothing.
const maxHeldKeep = 64

// compact moves the held blocks down to the front of the queue's array, or
// into one of their size past maxHeldKeep.
func (ch *chain) compact() {
	live := ch.held[ch.head:]
	if cap(ch.held) > max(maxHeldKeep, 4*len(live)) {
		ch.held = slices.Clone(live)
	} else {
		n := copy(ch.held, live)
		clear(ch.held[n:])
		ch.held = ch.held[:n]
	}
	ch.head = 0
}

// anc returns the ancestry watermark of st's block, nil for no block; read,
// its entry for builder x at chain c's tip.
func (it *Interpreter) anc(st *blockState) []uint64 {
	if st == nil {
		return nil
	}
	return it.rows.Summary(int(st.num))
}
func (it *Interpreter) read(c, x int) uint64 {
	if anc := it.anc(it.chains[c].tip); x < len(anc) {
		return anc[x]
	}
	return 0
}

// Interpreter executes Algorithm 2 incrementally: AddBlock interprets one
// eligible block. Not safe for concurrent use; the owning server serializes.
type Interpreter struct {
	proto    protocol.Protocol
	n, f     int
	onInd    func(Indication)
	metrics  *metrics.Metrics
	rows     Rows           // numbers, watermarks and blocks of the DAG interpreted
	own      *ownRows       // rows, if none was given (Over)
	states   []*blockState  // by row; nil: not interpreted; gone: released
	chains   []chain        // by builder
	unread   []int          // by builder: blocks of other chains its chain has not read
	frontier []uint64       // by builder: its blocks below it every chain has read (release)
	lag      []atomic.Int64 // unread as of the last block interpreted, for ChainUnread
	stats    Stats
	// quiet is the pending quiet point (nil: none) and cut the last one
	// the frontier passed: chain-tip positions, by builder (Cut).
	quiet, cut []uint64

	done     map[types.Label]int // chains that finished a label not every chain has
	donePeak int                 // the most entries done has held since it was made (shrunk)
	retired  keyset.Set          // labels every chain has finished; never evicts

	// asked is the replay the last inspection query made, for row askedAt:
	// queries about one block share it, the next AddBlock drops it.
	asked   *Interpreter
	askedAt int32

	// spine is non-nil in a scratch interpreter (replay): the rows of the
	// chain of the block it was made for, whose table no other branch may
	// take.
	spine map[int32]bool

	visits  uint64             // numbers the newAncestry walks
	sources []*blockState      // their scratch space
	stack   []int32            // also theirs: rows
	in      []protocol.Message // advance's: the in-buffer it feeds
}

// New creates an interpreter for protocol P in a system of n servers
// tolerating f byzantine ones. onInd, if non-nil, receives every indication
// of every simulated server — the shim filters for its own (Algorithm 3).
func New(proto protocol.Protocol, n, f int, onInd func(Indication), opts ...Option) *Interpreter {
	it := &Interpreter{
		proto: proto, n: n, f: f, onInd: onInd,
		chains: make([]chain, n), unread: make([]int, n), frontier: make([]uint64, n), cut: make([]uint64, n),
		lag: make([]atomic.Int64, n), done: make(map[types.Label]int),
	}
	for _, opt := range opts {
		opt(it)
	}
	if it.rows == nil {
		it.own = &ownRows{DAG: graph.New[block.Ref]()}
		it.rows = it.own
	}
	return it
}

// parentRow returns the row of row i's parent — the predecessor one below it
// on its builder's chain — or -1 for a block without one (genesis).
func (it *Interpreter) parentRow(i int32) int32 {
	x, seq := it.rows.Pos(int(i))
	for _, p := range it.rows.PredsAt(int(i)) {
		if px, pseq := it.rows.Pos(int(p)); px == x && pseq+1 == seq {
			return p
		}
	}
	return -1
}

// state returns the state filed under ref's row, nil for none.
func (it *Interpreter) state(ref block.Ref) *blockState {
	if i, ok := it.rows.Index(ref); ok && i < len(it.states) {
		return it.states[i]
	}
	return nil
}

// put files st under its row.
func (it *Interpreter) put(st *blockState) {
	if grow := int(st.num) + 1 - len(it.states); grow > 0 {
		it.states = slices.Grow(it.states, grow)[:len(it.states)+grow]
	}
	it.states[st.num] = st
}

// SeedBase registers the pruned-history stand-ins of the seeded DAG the
// interpreter is over (Over, dag.SeedBase), so it accepts blocks whose
// predecessors were pruned. Each gets an empty block state: eligible as a
// predecessor, carrying no messages and no instances — the effects of pruned
// blocks live in the restored application state — and the DAG's watermark for
// it is the whole prune horizon, so message collection never reaches below
// the prune line. An instance whose delivery straddled the horizon would
// start fresh at the first live chain block; none does at a horizon that
// is an interpreter's cut (Cut), the quiet point a node prunes at. Run it
// before any AddBlock.
func (it *Interpreter) SeedBase(entries []dag.Base) error {
	if len(it.states) > 0 {
		return errors.New("interpret: SeedBase on a non-empty interpreter")
	}
	for _, e := range entries {
		num, ok := it.rows.Index(e.Ref)
		if !ok {
			return fmt.Errorf("interpret: base entry %v is not in the DAG interpreted", e.Ref)
		}
		st := &blockState{builder: e.Builder, seq: e.Seq, num: int32(num), stand: true}
		it.put(st)
		if ch := &it.chains[e.Builder]; ch.tip == nil || ch.tip.seq < e.Seq {
			ch.tip = st // the parent of the first live block
		}
	}
	return nil
}

// Interpreted reports I[B]: whether the block was already interpreted (or
// stands in for one that was).
func (it *Interpreter) Interpreted(ref block.Ref) bool { return it.state(ref) != nil }

// Stats counts what the interpreter holds beyond a slot per block. All
// but RetiredLabels follow the load while every chain advances, not the
// history; WithMetrics publishes them as gauges.
type Stats struct {
	LiveInstances int // process instances in the chain-tip tables
	Tombstones    int // table entries of instances Done on their chain, not yet on every chain
	RetiredLabels int // labels every chain has finished: the retired set
	OutMessages   int // records in the out-buffers held, a broadcast being one
	HoldingBlocks int // blocks holding an out-buffer some chain has not read
}

// AddBlock interprets block b (Algorithm 2 lines 4–12). Every predecessor
// must have been interpreted already; by Lemma 4.2 every topological order
// of the DAG yields the same states. Re-adding a block is a no-op.
func (it *Interpreter) AddBlock(b *block.Block) error {
	ref := b.Ref()
	if it.Interpreted(ref) {
		return nil
	}
	if int(b.Builder) >= it.n {
		return fmt.Errorf("interpret: block %v built by %v in a system of %d servers", ref, b.Builder, it.n)
	}

	for _, p := range b.Preds {
		if it.state(p) == nil {
			return fmt.Errorf("%w: block %v missing pred %v", ErrNotEligible, ref, p)
		}
	}
	if it.own != nil { // number it: every predecessor is a row, so this cannot fail
		_ = it.own.InsertChained(ref, b.Preds, int(b.Builder), b.Seq)
		it.own.blocks = append(it.own.blocks, b)
	}
	num, ok := it.rows.Index(ref)
	if !ok {
		return fmt.Errorf("interpret: block %v is not in the DAG interpreted", ref)
	}

	it.release() // not after the last block: inspecting that one never replays
	// The parent: same builder, seq-1 (a stand-in above a prune horizon); DAG
	// validity guarantees one but for genesis.
	prow := it.parentRow(int32(num))
	var parent *blockState
	if prow >= 0 {
		parent = it.states[prow]
	}
	st := &blockState{builder: b.Builder, seq: b.Seq, num: int32(num)}
	ch := &it.chains[b.Builder]
	primary := it.spine == nil && ch.tip == parent
	switch {
	case primary:
		ch.tip = st
	case it.spine == nil && !ch.forked:
		// From now on the builder keeps its states: only out-buffers wait.
		ch.forked = true
		ch.compact()
		ch.held = slices.DeleteFunc(ch.held, func(s *blockState) bool { return len(s.out) == 0 })
	}

	// Line 4: B.PIs starts as the parent's. Every honest block is the
	// only child of its parent and takes the table over; a chain root
	// (genesis, or the first block above a stand-in) starts an empty one;
	// a block that finds a source released or the table gone replays.
	sources, held := it.newAncestry(st)
	switch {
	case !held:
	case parent == nil || parent.stand:
		st.pis = make(instances)
	case parent.pis != nil && (!it.spine[prow] || it.spine[st.num]):
		st.pis, parent.pis = parent.pis, nil
	}
	it.put(st) // line 12, I[B] := true, early: a replay reads the block by its row
	if st.pis != nil {
		it.advance(st, b, sources, primary)
	} else {
		// The replay's table is a second one for this chain: it counts.
		sc, err := it.replay(st.num, func(ind Indication) {
			if ind.Block == ref {
				it.indicate(ind)
			}
		})
		if err != nil {
			return fmt.Errorf("interpret: block %v: %w", ref, err)
		}
		got := sc.states[num]
		st.pis, st.out = got.pis, got.out
		for _, proc := range st.pis {
			if proc != nil {
				it.stats.LiveInstances++
			} else {
				it.stats.Tombstones++
			}
		}
	}
	if len(st.out) > 0 || !ch.forked {
		ch.held = append(ch.held, st)
	}
	if len(st.out) > 0 {
		it.stats.OutMessages += len(st.out)
		it.stats.HoldingBlocks++
		it.metrics.Add(metrics.MsgsMaterialized, int64(protocol.Count(st.out, it.n)))
	}
	it.metrics.Add(metrics.BlocksInterpreted, 1)
	it.publish()
	return nil
}

// publish sets the gauges: what the interpreter holds, and each chain's lag.
func (it *Interpreter) publish() {
	if it.metrics == nil {
		return
	}
	it.metrics.Set(metrics.InstancesLive, int64(it.stats.LiveInstances))
	it.metrics.Set(metrics.InstancesRetired, int64(it.stats.Tombstones))
	it.metrics.Set(metrics.LabelsRetired, int64(it.stats.RetiredLabels))
	it.metrics.Set(metrics.OutMessagesHeld, int64(it.stats.OutMessages))
	it.metrics.Set(metrics.BlocksHolding, int64(it.stats.HoldingBlocks))
	for c, v := range it.unread {
		it.lag[c].Store(int64(v))
	}
}

// Families declares the gauge the interpreter keeps outside its Metrics: a
// sample per builder (CollectChainUnread).
var Families metrics.Table

var chainUnread = Families.Gauge("interpret_chain_unread_blocks", "Blocks of other chains this builder's chain, as known here, has not read: what holds out-buffers, and who is behind.")

// ChainUnread returns, per builder, how many blocks of the other chains that
// builder's chain has not read, as far as this interpreter knows: the chain
// that is behind, and what holds the out-buffers. Published with the gauges
// (zeros without WithMetrics); safe from any goroutine.
func (it *Interpreter) ChainUnread() []int64 {
	out := make([]int64, len(it.lag))
	for c := range it.lag {
		out[c] = it.lag[c].Load()
	}
	return out
}

// CollectChainUnread samples read, a ChainUnread, once per builder.
func CollectChainUnread(read func() []int64) metrics.Collector {
	return func(emit func(metrics.Metric)) {
		for builder, unread := range read() {
			emit(Families.Sample(chainUnread, float64(unread), "builder", strconv.Itoa(builder)))
		}
	}
}

// release drops the out-buffers and the states every chain has read: gone
// takes their slots. Chain c has read the blocks of builder x below its tip's
// anc[x], x's own chain those below its tip (its next block reads the tip),
// and no block that extends one of the n tips reads below the least of these,
// x's frontier. It only rises, and a builder that stops building stops every
// frontier: what a silent peer has not read stays held. Only a block that
// extends no tip — a fork — can find a source released. A builder that forked
// keeps its states, so a branch extended below the frontier takes its
// parent's table over rather than replaying per block. The same pass counts
// what each chain has not read, and, in a live interpreter, moves the cut
// (Cut).
func (it *Interpreter) release() {
	it.asked = nil
	clear(it.unread)
	for x := range it.chains {
		own := &it.chains[x]
		top := it.read(x, x)
		frontier := max(top, 1) - 1
		for c := range it.chains {
			if c != x {
				read := it.read(c, x)
				frontier = min(frontier, read)
				it.unread[c] += int(max(top, read) - read)
			}
		}
		for ; own.head < len(own.held) && own.held[own.head].seq < frontier; own.head++ {
			st, marker := own.held[own.head], gone[0]
			own.held[own.head] = nil
			if len(st.out) > 0 {
				it.stats.OutMessages -= len(st.out)
				it.stats.HoldingBlocks--
				st.out, st.released, marker = nil, true, gone[1]
			}
			if !own.forked {
				it.states[st.num] = marker
			}
		}
		if own.head >= len(own.held)-own.head {
			own.compact() // the popped prefix is at least the rest
		}
		it.frontier[x] = frontier
	}
	if it.spine != nil {
		return
	}
	if it.quiet != nil && dominated(it.quiet, it.frontier) {
		it.cut, it.quiet = it.quiet, nil
	}
	if s := it.stats; it.quiet == nil && s.LiveInstances == 0 && s.Tombstones == 0 && s.OutMessages == 0 {
		it.quiet = make([]uint64, it.n)
		for x, ch := range it.chains {
			if ch.tip != nil {
				it.quiet[x] = ch.tip.seq + 1
			}
		}
	}
}

// Frontier returns, by builder, the sequence number below which every chain
// has read that builder's blocks, as of the last AddBlock: what the DAG may
// release (dag.DAG.Release). Read-only; it only rises.
func (it *Interpreter) Frontier() []uint64 { return it.frontier }

// Cut returns, by builder, the sequence number below which the node may
// prune that builder's blocks (store.PruneTo), as of the last AddBlock: the
// chain-tip positions (seq + 1) at a quiet point — a release that left no
// instance live, no tombstone and no out-buffer unread — once the frontier
// has passed them on every chain. Every chain-tip table was empty there but
// for the retired set, so stand-ins at the cut (SeedBase) feed every block
// above it what it was fed here, and every builder holds the blocks below
// it. One quiet point is pending at a time; the cut only rises, and under
// load that overlaps without a pause it does not move. Read-only.
//
// The retired set is not carried across a cut: on a node restarted over
// one, a late request for a label retired below it starts a fresh instance
// (ROADMAP item 4(b)).
func (it *Interpreter) Cut() []uint64 { return it.cut }

// replay is the one miss path: it interprets the blocks up to row num afresh,
// in row order (a topological order), in a scratch interpreter over the same
// rows, and returns it. A block's state is a function of its ancestry alone
// (Lemma 4.2), so there the block and its sources hold the tables and
// out-buffers they have, or had, here: a scratch interpreter follows no chain
// tip, so it releases and retires nothing, and the block's chain (spine, its
// parents' rows) keeps its table to the end. A fork off it replays in turn,
// sharing the states beside its spine — every out-buffer is held there. The
// cost is one pass over history, and a chain's length per fork.
//
// The blocks are read from the rows, a DAG's released ones back from its
// journal. A block the journal no longer holds — history pruned below a
// horizon — replays as a stand-in, as on a node restored from that prune's
// snapshot; any other failure to read one is the replay's error.
func (it *Interpreter) replay(num int32, onInd func(Indication)) (*Interpreter, error) {
	sc := New(it.proto, it.n, it.f, onInd, Over(it.rows))
	sc.spine, sc.visits = make(map[int32]bool), it.visits
	for s := num; s >= 0 && !it.states[s].stand; s = it.parentRow(s) {
		sc.spine[s] = true
	}
	sc.states = make([]*blockState, num+1)
	for i, s := range it.states[:num+1] {
		switch {
		case s == nil:
		case s.stand || it.spine != nil && !sc.spine[int32(i)]:
			sc.states[i] = s // a stand-in, or beside both spines: read-only, shared
		default:
			if err := sc.readd(int32(i)); err != nil {
				return nil, err
			}
		}
	}
	it.visits = sc.visits // shared states carry its stamps
	return sc, nil
}

// readd interprets row i's block again in scratch interpreter sc, or — the
// block pruned from the journal — files a stand-in for it.
func (sc *Interpreter) readd(i int32) error {
	b, err := sc.rows.ReadRow(int(i))
	switch {
	case errors.Is(err, dag.ErrPruned):
		builder, seq := sc.rows.Pos(int(i))
		sc.states[i] = &blockState{builder: builder, seq: seq, num: i, stand: true}
		return nil
	case err != nil:
		return err
	}
	return sc.AddBlock(b) // eligible here, so eligible there
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
// or for only one, into buf's array (advance reuses one; nil for a fresh
// result): the messages addressed to receiver in the out-buffers of sources,
// grouped by label and each label's in <M order. A broadcast record is taken
// as the message to this receiver, so order and set semantics are those of
// the n messages it stands for. The in-buffer is a set: identical messages
// materialized via two sources (e.g. across an equivocator's forks) collapse
// to one.
func inMessages(buf []protocol.Message, receiver types.ServerID, sources []*blockState, only *types.Label) []protocol.Message {
	in := buf[:0]
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

// advance runs Algorithm 2 lines 5–14 for block b, whose state is st, on
// st.pis, its chain's instance table as the parent left it. Labels are
// independent instances, so it takes them one at a time, in sorted order to
// keep the trace canonical: the requests B.rs carries for ℓ in block order
// (lines 5–6), then B.Ms[in, ℓ] in <M order (lines 10–11), then ℓ's
// indications, attributed to B.n (lines 13–14), and a tombstone if ℓ's
// instance is Done.
// primary: st is its chain's tip, whose table the retired set speaks for.
func (it *Interpreter) advance(st *blockState, b *block.Block, sources []*blockState, primary bool) {
	ref := b.Ref()
	reqs := slices.Clone(b.Requests)
	slices.SortStableFunc(reqs, func(a, b block.Request) int {
		return strings.Compare(string(a.Label), string(b.Label))
	})
	it.in = inMessages(it.in, b.Builder, sources, nil)
	in := it.in

	var emitted []protocol.Message
	for len(reqs) > 0 || len(in) > 0 {
		var label types.Label
		if len(in) == 0 || len(reqs) > 0 && reqs[0].Label <= in[0].Label {
			label = reqs[0].Label
		} else {
			label = in[0].Label
		}
		proc, started := st.pis[label]
		if !started && primary {
			started = it.retired.Has(string(label))
		}
		if !started {
			// No ancestor ran this instance: created lazily on first request
			// or message, as the paper's Section 4 suggests.
			proc = it.proto.NewProcess(protocol.Config{Self: b.Builder, Label: label, N: it.n, F: it.f})
			st.pis[label] = proc
			it.stats.LiveInstances++
		}
		// A deterministic per-(block, label) seed: Section 7's de-randomization.
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
		sharePayloads(emitted[mark:], fed[:len(fed)-len(in)])
		for _, value := range proc.Indications() {
			it.indicate(Indication{Label: label, Value: value, Server: b.Builder, Block: ref})
		}
		if proc.Done() {
			st.pis[label] = nil
			it.stats.LiveInstances--
			it.stats.Tombstones++
			if primary {
				it.retire(label)
			}
		}
	}
	if len(emitted) > 0 {
		st.out = slices.Clone(emitted) // kept at its exact size
	}
	if primary {
		ch := &it.chains[b.Builder]
		ch.peak = max(ch.peak, len(st.pis))
	}
	clear(it.in) // its payloads are the sources', which release drops
	it.in = trim(it.in)
}

// maxScratch is the most entries a scratch buffer keeps from one block to
// the next. A chain back from silence reads the whole backlog in one block,
// on every node, and its buffers must not stay that size.
const maxScratch = 1024

// trim empties a scratch buffer for reuse, or lets it go past maxScratch.
func trim[T any](s []T) []T {
	if cap(s) > maxScratch {
		return nil
	}
	return s[:0]
}

// indicate surfaces one indication.
func (it *Interpreter) indicate(ind Indication) {
	it.metrics.Add(metrics.Indications, 1)
	if it.onInd != nil {
		it.onInd(ind)
	}
}

// retire notes that one more chain has finished label. When all n have,
// their tombstones become one entry of the retired set — exact, not a
// filter: it stands for a tombstone in the n chain tips' tables and in no
// other (a table a replay made holds its own).
func (it *Interpreter) retire(label types.Label) {
	if it.done[label]++; it.done[label] < it.n {
		it.donePeak = max(it.donePeak, len(it.done))
		return
	}
	delete(it.done, label)
	it.done = shrunk(it.done, &it.donePeak)
	it.retired.Add(string(label))
	for c := range it.chains {
		ch := &it.chains[c]
		delete(ch.tip.pis, label)
		ch.tip.pis = shrunk(ch.tip.pis, &ch.peak)
	}
	it.stats.Tombstones -= it.n
	it.stats.RetiredLabels++
}

// minShrink is the most entries a map may have peaked at and still not be
// re-made: a Go map that never held more than one group of slots has nothing
// to give back.
const minShrink = 8

// shrunk re-makes m once retirements have left it under a quarter of its
// peak — empty included — and resets peak to what it holds. A Go map never
// gives back the buckets it grew, and a chain back from silence retires a
// whole backlog's labels at once, on every node: without this, the chain
// tips' tables and done keep the outage's size (what trim does for scratch
// slices). The copy is paid for by the three quarters of peak retired since.
func shrunk[M ~map[types.Label]V, V any](m M, peak *int) M {
	if m == nil || *peak <= minShrink || len(m) >= *peak/4 {
		return m
	}
	*peak = len(m)
	fresh := make(M, len(m))
	maps.Copy(fresh, m)
	return fresh
}

// newAncestry collects the sources of block st (Algorithm 2 lines 7–9
// read their out-buffers): every block in its ancestry that its chain has
// not consumed yet. The chain has consumed what lies below the parent,
// which the parent's watermark summarizes: a block at or above it is new
// (and read now, once: no later chain block finds it above its own parent's
// watermark), the parent itself is read by its child, and a block below it
// is either in the parent's ancestry or, if its builder equivocated, a
// duplicate of a sequence number the chain has read already and is skipped.
// Skipped is not stopped at: a fork block can be the only path to a correct
// builder's new block, so the walk descends through anything whose own
// watermark is not dominated by the parent's — which no block in the
// parent's ancestry is, so it visits only blocks new to the chain and their
// predecessors. The slice is scratch space, valid until the next call; held:
// no source has been released.
//
// The walk goes by rows, so a block whose state is gone is walked as any
// other — its position and watermark are its row's, and its out-buffer, had
// it one, is released — but takes no stamp: a block that extends its chain's
// tip meets only gone blocks its parent has consumed, and the few a fork's
// walk descends through are remembered in a set of their own.
func (it *Interpreter) newAncestry(st *blockState) (sources []*blockState, held bool) {
	parent := it.parentRow(st.num)
	var consumed []uint64
	if parent >= 0 {
		consumed = it.rows.Summary(int(parent))
	}
	it.visits++
	var through map[int32]bool // gone blocks the walk descended through
	sources, stack, held := trim(it.sources), append(trim(it.stack), st.num), true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range it.rows.PredsAt(int(s)) {
			ps := it.states[p]
			gone := ps.isGone()
			if ps.visit == it.visits || ps.stand || gone && through[p] {
				continue // seen, or a stand-in: consumed by construction
			}
			if !gone {
				ps.visit = it.visits
			}
			if x, seq := it.rows.Pos(int(p)); p == parent || int(x) >= len(consumed) || seq >= consumed[x] {
				sources, held = append(sources, ps), held && !ps.released
			}
			if !dominated(it.rows.Summary(int(p)), consumed) {
				stack = append(stack, p) // something below p is new
				if gone {
					if through == nil {
						through = make(map[int32]bool)
					}
					through[p] = true
				}
			}
		}
	}
	it.sources, it.stack = sources, stack
	return sources, held
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
// stored DAG can be replayed at any time, independent of gossip. A block
// that cannot be read back is the error.
func (it *Interpreter) InterpretDAG(d *dag.DAG) error {
	for i, base := 0, len(d.Base()); i < d.Len(); i++ {
		b, err := d.ReadRow(base + i)
		if err != nil {
			return err
		}
		if err := it.AddBlock(b); err != nil {
			return err
		}
	}
	return nil
}

// at returns an interpreter in which the block has its out-buffer, the
// out-buffers it read and, if asked for, its instance table, and its state
// there (nil if not interpreted, or if a replay cannot read its blocks): it
// itself if they are cached, else a replay.
func (it *Interpreter) at(ref block.Ref, table bool) (*Interpreter, *blockState) {
	num, ok := it.rows.Index(ref)
	if !ok || num >= len(it.states) || it.states[num] == nil || it.states[num].stand {
		return it, nil
	}
	if st := it.states[num]; !st.isGone() {
		if _, held := it.newAncestry(st); held && !st.released && (!table || st.pis != nil) {
			return it, st
		}
	}
	if it.asked == nil || it.askedAt != int32(num) {
		sc, err := it.replay(int32(num), nil)
		if err != nil {
			return it, nil
		}
		it.askedAt, it.asked = int32(num), sc
	}
	if st := it.asked.states[num]; !st.stand {
		return it.asked, st
	}
	return it, nil // pruned from the journal
}

// OutMessages returns B.Ms[out, ℓ] in emission order, broadcasts spelled
// out receiver by receiver. Like the three queries below it answers for any
// interpreted block, from the cache or by a replay.
func (it *Interpreter) OutMessages(ref block.Ref, label types.Label) []protocol.Message {
	if _, st := it.at(ref, false); st != nil {
		if out := outFor(st.out, label); len(out) > 0 {
			return protocol.Expand(out, it.n)
		}
	}
	return nil
}

// InMessages returns B.Ms[in, ℓ] in <M order, derived from the out-buffers
// of the block's sources — exactly what the instance was fed.
func (it *Interpreter) InMessages(ref block.Ref, label types.Label) []protocol.Message {
	if it, st := it.at(ref, false); st != nil {
		sources, _ := it.newAncestry(st)
		return inMessages(nil, st.builder, sources, &label)
	}
	return nil
}
