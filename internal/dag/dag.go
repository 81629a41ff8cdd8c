// Package dag implements the block DAG of the paper's Definition 3.4: a
// directed acyclic graph whose vertices are blocks the local server
// considers valid (Definition 3.3), with an edge (B, B') whenever
// ref(B) ∈ B'.preds.
//
// The package provides validation, insertion (which preserves the block
// DAG property, Lemma A.3/A.5), equivocation detection (Figure 3), and the
// joint block DAG construction of Lemma A.7 used in tests of Lemma 3.7.
//
// # Causal summary invariant
//
// Every insert annotates the underlying graph vertex with the block's
// (builder, seq) chain position, feeding the graph's incremental causal
// summary: each block carries a per-builder watermark vector — the highest
// ancestor sequence number on each builder's chain — built at insert time
// from the parent vector and a predecessor-vector join, with no traversal.
// The parent rule (Definition 3.3(ii)) is exactly the chain-connectivity
// invariant the index needs: an honest builder's blocks form a path, so
// Reaches, HappenedBefore, and Concurrent are O(1), allocation-free
// watermark compares. Builders with an observed equivocation (two blocks
// in one (builder, seq) slot, Figure 3) are flagged in the index; only
// queries starting from a flagged builder's block fall back to the
// backwards BFS, so byzantine forks cost their own queries — not everyone
// else's.
//
// # A block is one row
//
// The graph numbers every vertex once, by insertion order, and keeps the
// only index by ref there is: a table of row numbers that compares a probe
// against the ref in the row, so a ref is held once. A row is a fixed-size
// struct and its edges and summary are its parts of two flat columns, so a
// block costs no allocation of its own in either layer. This package holds
// no second index: the block of vertex i is a slot of one slice, a
// pruned-history stand-in is a seeded vertex with no block (the first rows
// of a seeded DAG), and "which block holds (builder, seq)" is the graph's
// slot column. A prefix of the rows and of the columns is all a horizon cut
// would have to drop.
//
// # Rows are never removed; bytes leave RAM
//
// A row — vertex, index slot, chain position, edges, summary — stays for
// good. A block's bytes (its frame, request table and labels) leave once
// every chain has read it (Release, at the frontier package interpret computes)
// and the journal (SetJournal) answers for them: every reader below — Get,
// BlockAt, All, Blocks, ByBuilder, EquivocationBlocks, ReadRow — goes
// through one accessor that reads a released block back from the journal,
// handing it the row's predecessors: the row answers for a block's edges,
// the journal for the rest of its bytes, and the accessor checks that the
// two rebuild the row's reference. Validation, insertion and reachability
// read rows only, so the fork-free path never reads a block back.
//
// # What a DAG holds, from any goroutine
//
// The DAG belongs to its owner's goroutine, with two exceptions: its
// counters (Counts, Collect) and its chain heads (Head, Heads). A head is
// what the DAG holds of one builder's chain — the slot above its highest
// row, and whether the chain forked — one word per builder, written at
// insert and read without a lock. It is the node's watermark vector: what a
// delta pull states, what a sync server compares a request with on the
// transport's goroutine, and where a node's own chain stands — gossip's next
// own block included. Nothing above the DAG keeps a second copy.
package dag

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"slices"
	"strconv"
	"sync/atomic"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/graph"
	"blockdag/internal/metrics"
	"blockdag/internal/types"
)

// Validation and insertion errors.
var (
	// ErrBadSignature reports failure of Definition 3.3 check (i).
	ErrBadSignature = errors.New("dag: block signature invalid")
	// ErrParentRule reports failure of Definition 3.3 check (ii): a
	// non-genesis block must have exactly one parent among its preds.
	ErrParentRule = errors.New("dag: block violates parent rule")
	// ErrMissingPreds reports that not all predecessors are present and
	// valid locally (Definition 3.3 check (iii) cannot be discharged).
	ErrMissingPreds = errors.New("dag: predecessors not in DAG")
	// ErrBuilderUnknown reports a builder outside the roster.
	ErrBuilderUnknown = errors.New("dag: builder not in roster")
)

// Equivocation is proof that a builder produced two distinct blocks with
// the same sequence number (Figure 3). Both blocks are individually valid;
// the pair exposes the byzantine behaviour.
type Equivocation struct {
	Builder types.ServerID
	Seq     uint64
	Refs    [2]block.Ref
}

// ErrNotEquivocation reports a block pair that is not a valid equivocation
// proof.
var ErrNotEquivocation = errors.New("dag: not an equivocation proof")

// VerifyEquivocationProof checks a transferable equivocation proof: two
// validly signed blocks by the same builder with the same sequence number
// but different references. Anyone holding the roster can verify it —
// no DAG required — making byzantine builders accountable to third
// parties (the PeerReview/Polygraph direction the paper points at in
// Section 6).
func VerifyEquivocationProof(roster *crypto.Roster, b1, b2 *block.Block) error {
	switch {
	case b1.Builder != b2.Builder:
		return fmt.Errorf("%w: different builders", ErrNotEquivocation)
	case b1.Seq != b2.Seq:
		return fmt.Errorf("%w: different sequence numbers", ErrNotEquivocation)
	case b1.Ref() == b2.Ref():
		return fmt.Errorf("%w: identical blocks", ErrNotEquivocation)
	case !b1.VerifySignature(roster) || !b2.VerifySignature(roster):
		return fmt.Errorf("%w: signature invalid", ErrNotEquivocation)
	}
	return nil
}

// Journal answers for the bytes of the blocks a DAG has released: Block
// returns the row-th inserted block (stand-ins not counted), read back, given
// its predecessors' references — the edges its row keeps for good, so a
// journal need not name them again. The DAG checks that the block rebuilds
// the row's reference. core.Journal is one — the store a server journals to,
// or the volatile journal that keeps every block of a server without one. A
// block it held and no longer does (history pruned below a horizon) is
// ErrPruned.
type Journal interface {
	Block(row int, preds []block.Ref) (*block.Block, error)
}

// ErrPruned is a journal's answer for a block it no longer holds.
var ErrPruned = errors.New("dag: block pruned from the journal")

// DAG is one server's local block DAG G ∈ Dags: blocks are validated before
// insertion and their rows never removed, though a released block's bytes
// are the journal's to hold (package doc). DAG is not safe for concurrent
// use — the owning state machine serializes access — except Counts, Collect,
// Head and Heads, which answer from any goroutine.
type DAG struct {
	roster *crypto.Roster
	g      *graph.DAG[block.Ref]
	// order holds the blocks in insertion order, a topological order:
	// the block of graph vertex i is order[i-len(base)]; nil once released,
	// when journal answers for it. below is, by builder, the sequence number
	// its released blocks lie under; held counts the blocks order holds.
	order   []*block.Block
	journal Journal
	below   []uint64
	held    int
	counts  metrics.Metrics // over Families
	// heads is, by builder, its chain head (Head) in one word: Next shifted
	// left by one, the low bit Forked. Sized at New and never resized, so a
	// reader on another goroutine needs no lock.
	heads []atomic.Uint64

	// base holds stand-in entries for pruned blocks (SeedBase): their
	// refs satisfy predecessor and parent checks, but the blocks
	// themselves are gone. They are graph vertices 0..len(base)-1, in
	// that order. Empty on an unpruned DAG.
	base []Base

	proven         map[slot]struct{} // forked slots whose proof pair went out
	equivocations  []Equivocation
	onEquivocation func(Equivocation)
}

// Head is what a DAG holds of one builder's chain. Next is 1 + the highest
// sequence number among the chain's rows, stand-ins included, and 0 for a
// chain with none: the parent rule makes a chain prefix-closed above its
// stand-ins, so every slot below Next is held (or pruned under the base).
// Forked reports that two blocks claimed one slot of the chain (Figure 3):
// Next still says how far the chain reaches, but no longer which blocks it
// holds.
type Head struct {
	Next   uint64
	Forked bool
}

// Base is one pruned-history stand-in: the reference and chain position
// of a block that was discarded below a snapshot horizon but is still
// referenced by retained blocks. A seeded DAG treats base refs as
// present-and-valid for predecessor closure and the parent rule — the
// inductive validity of Definition 3.3(iii) for them is carried by the
// snapshot certificate instead of re-verification.
type Base struct {
	Builder types.ServerID
	Seq     uint64
	Ref     block.Ref
}

// maxEquivocations caps the retained proof list. One proof per slot is
// recorded at most (see insert), so the cap only binds against a
// byzantine builder forking thousands of distinct slots; beyond it the
// forks are still detected — chains stay flagged in the causal index
// and the equivocation hook still fires — but no further proofs are
// retained. One proof per builder is all a ban needs.
const maxEquivocations = 1024

type slot struct {
	builder types.ServerID
	seq     uint64
}

// New returns an empty block DAG for a server in the given roster.
func New(roster *crypto.Roster) *DAG {
	return &DAG{roster: roster, g: graph.New[block.Ref](), below: make([]uint64, roster.N()),
		heads: make([]atomic.Uint64, roster.N()), proven: make(map[slot]struct{})}
}

// Head returns what the DAG holds of builder id's chain, the zero Head for a
// builder outside the roster. Safe from any goroutine, while the owner
// inserts: a reader sees each chain's head as of some insert, never a torn
// one.
func (d *DAG) Head(id types.ServerID) Head {
	if int(id) >= len(d.heads) {
		return Head{}
	}
	w := d.heads[id].Load()
	return Head{Next: w >> 1, Forked: w&1 == 1}
}

// Heads returns every builder's Head, indexed by builder. Safe from any
// goroutine, like Head; the heads are read one at a time, so a concurrent
// insert may show in some and not in others.
func (d *DAG) Heads() []Head {
	out := make([]Head, len(d.heads))
	for id := range out {
		out[id] = d.Head(types.ServerID(id))
	}
	return out
}

// HeadRef returns the reference of the row at the top of builder id's chain —
// the first inserted at Head(id).Next-1, a block or a stand-in: what the
// builder's next block cites as its parent. False for a chain with no row.
// Unlike Head, for the owner only.
func (d *DAG) HeadRef(id types.ServerID) (block.Ref, bool) {
	next := d.Head(id).Next
	if next == 0 {
		return block.Ref{}, false
	}
	v, _ := d.g.Slot(int(id), next-1) // taken: the first row at the top seq holds it
	return d.g.At(v), true
}

// maxSeq bounds the sequence number a stand-in may claim: a head packs
// 1 + seq into 63 bits, and chains grow from their stand-ins one block at a
// time, so no block comes near it.
const maxSeq = 1 << 62

// raise records a row at (id, seq), inserted or seeded: the head moves up to
// it, and takes the graph's verdict on whether the chain forked.
func (d *DAG) raise(id types.ServerID, seq uint64) {
	w := max(d.heads[id].Load()>>1, seq+1) << 1
	if d.g.ChainForked(int(id)) {
		w |= 1
	}
	d.heads[id].Store(w)
}

// SetJournal installs what answers for released blocks (Release).
func (d *DAG) SetJournal(j Journal) { d.journal = j }

// Families declares what a DAG counts of where its blocks' bytes are (Counts,
// safe from any goroutine) — held, or read back from the journal — and its
// chain heads, one sample per builder. They stay out of the status document.
var Families metrics.Table

var (
	blocksHeld   = Families.Gauge("", "dag_blocks_held", "Blocks whose bytes the DAG holds; the journal answers for the others.")
	journalReads = Families.Counter("", "journal_block_reads_total", "Released blocks read back from the journal.")
	chainNext    = Families.Gauge("", "dag_chain_next_seq", "1 + the highest sequence number held of the builder's chain, stand-ins included: what this node's sync vector states, and, beside a peer's, which chain it lacks.")
)

// Counts returns the DAG's counters, read over Families.
func (d *DAG) Counts() *metrics.Metrics { return &d.counts }

// Collect samples Families: the counters, and the chain heads once per
// builder. Safe from any goroutine, as Counts and Head are.
func (d *DAG) Collect(emit func(metrics.Metric)) {
	emit(Families.Sample(blocksHeld, float64(d.counts.Get(blocksHeld))))
	emit(Families.Sample(journalReads, float64(d.counts.Get(journalReads))))
	for id, h := range d.Heads() {
		emit(Families.Sample(chainNext, float64(h.Next), "builder", strconv.Itoa(id)))
	}
}

// Release lets go of the bytes of builder x's blocks below frontier[x] —
// what every chain has read (interpret.Interpreter.Frontier) — for the
// journal to answer for from then on; their rows stay. A forked slot's later
// blocks stay held, and so does a block that cites one predecessor twice:
// its row keeps each edge once, so the references read hands the journal
// could not rebuild it. The caller releases only blocks its journal holds
// (core stops at the journal's first error); without a journal nothing goes.
func (d *DAG) Release(frontier []uint64) {
	if d.journal == nil {
		return
	}
	for x, f := range frontier[:min(len(frontier), len(d.below))] {
		if f <= d.below[x] {
			continue
		}
		for _, v := range d.g.Slots(x, d.below[x], f) {
			i := int(v) - len(d.base)
			if i < 0 || d.order[i] == nil || len(d.order[i].Preds) != len(d.g.PredsAt(int(v))) {
				continue
			}
			d.order[i] = nil
			d.held--
		}
		d.below[x] = f
	}
	d.counts.Set(blocksHeld, int64(d.held))
}

// read is the one accessor: the i-th inserted block, held or read back from
// the journal over its row's predecessors (stand-ins included), and checked
// against the row's reference — the one check a read-back block passes.
func (d *DAG) read(i int) (*block.Block, error) {
	if b := d.order[i]; b != nil {
		return b, nil
	}
	d.counts.Add(journalReads, 1)
	v := len(d.base) + i
	rows := d.g.PredsAt(v)
	preds := make([]block.Ref, len(rows))
	for k, p := range rows {
		preds[k] = d.RefAt(int(p))
	}
	b, err := d.journal.Block(i, preds)
	switch {
	case err != nil:
		return nil, fmt.Errorf("dag: read block %d back: %w", i, err)
	case b.Ref() != d.RefAt(v):
		return nil, fmt.Errorf("dag: block %d read back as %v, want %v", i, b.Ref(), d.RefAt(v))
	}
	return b, nil
}

// ReadRow returns the block of row v (stand-ins first, as Index numbers
// them), or why it cannot be had. The readers that return no error (Get,
// BlockAt, All, …) treat a block that cannot be read back as absent.
func (d *DAG) ReadRow(v int) (*block.Block, error) {
	if v < len(d.base) {
		return nil, fmt.Errorf("dag: row %d is a pruned-history stand-in", v)
	}
	return d.read(v - len(d.base))
}

// RowsBeyond returns, in row order — insertion order, so a row's
// predecessors come before it or lie under the horizon — the block rows a
// holder of the horizon next lacks: each builder's slot column from next[id]
// to its head, a chain forked here whole. O(rows returned), a fork aside.
func (d *DAG) RowsBeyond(next map[types.ServerID]uint64) []int32 {
	var rows []int32
	for id := range d.heads {
		if h := d.Head(types.ServerID(id)); !h.Forked {
			rows = append(rows, d.g.Slots(id, next[types.ServerID(id)], h.Next)...)
			continue
		}
		for _, v := range d.g.Chain(id) {
			rows = append(rows, int32(v))
		}
	}
	rows = slices.DeleteFunc(rows, func(v int32) bool { return int(v) < len(d.base) })
	slices.Sort(rows)
	return rows
}

// SetOnEquivocation installs a callback invoked when a (builder, seq)
// slot is first observed forked — at most once per slot, with the
// recorded proof pair. The accountability layer subscribes here to
// export transferable evidence the moment the local DAG detects a fork,
// including during restore replay (callers must tolerate re-observing
// proofs they already persisted).
func (d *DAG) SetOnEquivocation(fn func(Equivocation)) { d.onEquivocation = fn }

// SeedBase installs pruned-history stand-ins into an empty DAG,
// restoring the context a snapshot-restored node needs to validate
// blocks above the prune horizon: each entry's ref satisfies
// predecessor closure, its (builder, seq) slot anchors the parent rule
// and the causal summary, and later blocks claiming an already-seeded
// slot are still flagged as equivocation. It must run before any
// insert; a non-empty DAG is refused.
func (d *DAG) SeedBase(entries []Base) error {
	if d.g.Len() > 0 {
		return errors.New("dag: SeedBase on a non-empty DAG")
	}
	if len(entries) == 0 {
		return nil
	}
	// What was pruned lies below every stand-in, whatever its chain: each gets
	// the whole horizon as its causal summary (package interpret reads it).
	below := make([]uint64, d.roster.N())
	for _, e := range entries {
		if !d.roster.Contains(e.Builder) {
			return fmt.Errorf("%w: base entry %v", ErrBuilderUnknown, e.Builder)
		}
		if e.Seq >= maxSeq {
			return fmt.Errorf("dag: base entry %v at seq %d, past any chain", e.Builder, e.Seq)
		}
		below[e.Builder] = max(below[e.Builder], e.Seq+1)
	}
	for _, e := range entries {
		if d.g.Contains(e.Ref) {
			continue
		}
		// The seeded vertex takes its slot: a later live block in it is an
		// equivocation against pruned history (detected, though the proof
		// pair cannot be exported — one half is gone).
		if err := d.g.InsertSeeded(e.Ref, int(e.Builder), e.Seq, below); err != nil {
			return fmt.Errorf("dag: seed base: %w", err)
		}
		d.base = append(d.base, e)
		d.raise(e.Builder, e.Seq)
	}
	return nil
}

// Base returns the seeded pruned-history stand-ins, ordered by
// (builder, seq); nil for an unpruned DAG.
func (d *DAG) Base() []Base {
	out := slices.Clone(d.base)
	slices.SortFunc(out, func(a, b Base) int {
		return cmp.Or(cmp.Compare(a.Builder, b.Builder), cmp.Compare(a.Seq, b.Seq))
	})
	return out
}

// Index returns the number of ref's row (stand-ins first, then the blocks in
// insertion order) and Summary that row's causal summary (graph.Summary),
// read-only. This is the node's one ref → number index: what sits above the
// DAG keeps a column over the number (interpret) or a count (store).
// PredsAt, RefAt and Pos are the rest of a row, read-only: its
// predecessors' rows, its reference and its chain position.
func (d *DAG) Index(ref block.Ref) (int, bool) { return d.g.Index(ref) }
func (d *DAG) Summary(i int) []uint64          { return d.g.Summary(i) }
func (d *DAG) PredsAt(i int) []int32           { return d.g.PredsAt(i) }
func (d *DAG) RefAt(i int) block.Ref           { return d.g.At(i) }
func (d *DAG) Pos(i int) (types.ServerID, uint64) {
	chain, seq := d.g.Pos(i)
	return types.ServerID(chain), seq
}

// BaseRef resolves a reference to its base entry, if it is one.
func (d *DAG) BaseRef(ref block.Ref) (Base, bool) {
	if i, ok := d.g.Index(ref); ok && i < len(d.base) {
		return d.base[i], true
	}
	return Base{}, false
}

// BaseHorizon returns, per builder with pruned history, the first
// sequence number at or above the prune horizon — the chain positions
// where live blocks resume. Catch-up horizons start from these instead
// of zero on a pruned DAG.
func (d *DAG) BaseHorizon() map[types.ServerID]uint64 {
	if len(d.base) == 0 {
		return nil
	}
	out := make(map[types.ServerID]uint64)
	for _, e := range d.base {
		out[e.Builder] = max(out[e.Builder], e.Seq+1)
	}
	return out
}

// Len returns the number of blocks in the DAG (base stand-ins not
// counted: they carry no block).
func (d *DAG) Len() int { return len(d.order) }

// Contains reports whether the block with the given reference is in G.
// Base stand-ins count as contained: their blocks are pruned, but the
// DAG vouches for them (predecessor closure, Definition 3.3(iii)).
func (d *DAG) Contains(ref block.Ref) bool { return d.g.Contains(ref) }

// Get returns the block with the given reference, if present.
func (d *DAG) Get(ref block.Ref) (*block.Block, bool) {
	i, ok := d.g.Index(ref)
	if !ok || i < len(d.base) {
		return nil, false
	}
	b, err := d.read(i - len(d.base))
	return b, err == nil
}

// smallPreds is the predecessor-list size below which dedup runs as an
// allocation-free linear scan. Honest blocks stay below it (parent plus
// tips: rarely more than roster size + 1 references; blocks journaled
// before the tip rule, the recent-block count); oversized byzantine lists
// keep the map-backed O(k) path so quadratic scans cannot be provoked.
const smallPreds = 16

// distinctPreds yields b's references in block order, each once.
func distinctPreds(b *block.Block) iter.Seq[block.Ref] {
	return func(yield func(block.Ref) bool) {
		var seen map[block.Ref]struct{}
		if len(b.Preds) > smallPreds {
			seen = make(map[block.Ref]struct{}, len(b.Preds))
		}
		for i, p := range b.Preds {
			if seen != nil {
				if _, dup := seen[p]; dup {
					continue
				}
				seen[p] = struct{}{}
			} else if slices.Contains(b.Preds[:i], p) {
				continue
			}
			if !yield(p) {
				return
			}
		}
	}
}

// MissingPreds returns the references in b.Preds not yet in the DAG, in
// block order without duplicates. Gossip uses this to issue FWD requests.
// It returns nil — without allocating — when nothing is missing, the hot
// case on the insert path.
func (d *DAG) MissingPreds(b *block.Block) []block.Ref {
	var missing []block.Ref
	for p := range distinctPreds(b) {
		if !d.Contains(p) {
			missing = append(missing, p)
		}
	}
	return missing
}

// Validate implements valid(s, B) of Definition 3.3 for a block whose
// predecessors are already in the DAG: (i) the signature verifies, (ii)
// the block is genesis or has exactly one parent, and (iii) all
// predecessors are valid — discharged by induction, since only validated
// blocks are ever inserted (Lemma A.5). If predecessors are missing it
// returns ErrMissingPreds; the caller buffers the block and fetches them.
func (d *DAG) Validate(b *block.Block) error {
	return d.validate(b, true)
}

func (d *DAG) validate(b *block.Block, checkSig bool) error {
	if !d.roster.Contains(b.Builder) {
		return fmt.Errorf("%w: %v", ErrBuilderUnknown, b.Builder)
	}
	if checkSig && !b.VerifySignature(d.roster) {
		return fmt.Errorf("%w: block %v by %v", ErrBadSignature, b.Ref(), b.Builder)
	}
	return d.checkParentRule(b)
}

// checkParentRule verifies Definition 3.3 (ii), one index lookup per
// reference and the rows alone: every pred resolves to a block or a stand-in
// (else ErrMissingPreds, before any verdict on parents); genesis blocks have
// no parent; other blocks have exactly one pred — a block or a stand-in — by
// the same builder with sequence number Seq-1.
func (d *DAG) checkParentRule(b *block.Block) error {
	parents := 0
	for p := range distinctPreds(b) {
		i, ok := d.g.Index(p)
		if !ok {
			return fmt.Errorf("%w: pred %v of block %v", ErrMissingPreds, p, b.Ref())
		}
		if builder, seq := d.Pos(i); builder == b.Builder && !b.IsGenesis() && seq == b.Seq-1 {
			parents++
		}
	}
	switch {
	case b.IsGenesis() && parents != 0:
		// Unreachable: no pred counts as a genesis block's parent. Kept
		// as a defensive check mirroring the definition.
		return fmt.Errorf("%w: genesis block %v has a parent", ErrParentRule, b.Ref())
	case !b.IsGenesis() && parents != 1:
		return fmt.Errorf("%w: block %v (builder %v, seq %d) has %d parents, want 1",
			ErrParentRule, b.Ref(), b.Builder, b.Seq, parents)
	}
	return nil
}

// Insert validates b and adds it to the DAG, implementing G.insert(B) of
// Definition 3.4. Re-inserting a block already in G is a no-op
// (Lemma A.2). On success the DAG is still a block DAG (Lemma A.3) and the
// previous DAG is ⩽ the new one (Lemma 2.2(2)).
func (d *DAG) Insert(b *block.Block) error {
	return d.insert(b, true)
}

// InsertVerified is Insert for a block whose signature the caller has
// already verified (the gossip layer checks signatures on receipt, before
// buffering). All structural checks of Definition 3.3 still run; only the
// redundant signature verification is skipped, so each block costs exactly
// one verification per server — the accounting behind experiment E10.
func (d *DAG) InsertVerified(b *block.Block) error {
	return d.insert(b, false)
}

func (d *DAG) insert(b *block.Block, checkSig bool) error {
	if d.Contains(b.Ref()) {
		return nil
	}
	if err := d.validate(b, checkSig); err != nil {
		return err
	}
	first, forked := d.g.Slot(int(b.Builder), b.Seq) // who held the slot before b
	if err := d.g.InsertChained(b.Ref(), b.Preds, int(b.Builder), b.Seq); err != nil {
		// Preds were just validated as present; failure means the
		// graph and block store diverged.
		return fmt.Errorf("dag: graph insert: %w", err)
	}
	d.order = append(d.order, b)
	d.held++
	d.counts.Set(blocksHeld, int64(d.held))
	d.raise(b.Builder, b.Seq)

	// Record one proof per forked slot — on the first duplicate only.
	// A builder spraying k blocks into one slot used to append k-1
	// redundant proofs; one pair convicts it just as hard, and the
	// global cap bounds retention against many-slot forking.
	s := slot{builder: b.Builder, seq: b.Seq}
	if _, done := d.proven[s]; forked && !done {
		d.proven[s] = struct{}{}
		e := Equivocation{
			Builder: b.Builder,
			Seq:     b.Seq,
			Refs:    [2]block.Ref{d.g.At(first), b.Ref()},
		}
		if len(d.equivocations) < maxEquivocations {
			d.equivocations = append(d.equivocations, e)
		}
		if d.onEquivocation != nil {
			d.onEquivocation(e)
		}
	}
	return nil
}

// Blocks returns all blocks in insertion order (a topological order). The
// slice is a fresh copy on every call — external callers may retain and
// reorder it freely; the blocks themselves are shared and must be treated
// as immutable. Hot paths that only iterate should use All (no copy)
// instead.
func (d *DAG) Blocks() []*block.Block { return slices.Collect(d.All()) }

// All returns an iterator over the blocks in insertion order (a topological
// order), released ones read back one at a time: the interpreter's,
// recovery's and the convergence scans' walk of the whole DAG. It stops at a
// block that cannot be read back (ReadRow says why). The DAG must not be
// mutated during iteration; the yielded blocks are shared and immutable.
func (d *DAG) All() iter.Seq[*block.Block] {
	return func(yield func(*block.Block) bool) {
		for i := range d.order {
			b, err := d.read(i)
			if err != nil || !yield(b) {
				return
			}
		}
	}
}

// BlockAt returns the i-th inserted block, nil if it cannot be read back.
func (d *DAG) BlockAt(i int) *block.Block {
	b, _ := d.read(i)
	return b
}

// Refs returns all block references in insertion order.
func (d *DAG) Refs() []block.Ref { return d.g.Order() }

// Tips returns the blocks no other block references yet, in insertion
// order. The tip set is maintained incrementally by the graph; this call
// only copies it.
func (d *DAG) Tips() []block.Ref { return d.g.Tips() }

// Reaches reports B ⇀+ B' on the underlying graph: O(1) via the causal
// summary when from's builder has not equivocated, a backwards BFS
// otherwise (see the package doc).
func (d *DAG) Reaches(from, to block.Ref) bool { return d.g.Reaches(from, to) }

// ReachesReflexive reports B ⇀* B' (zero or more steps).
func (d *DAG) ReachesReflexive(from, to block.Ref) bool { return d.g.ReachesReflexive(from, to) }

// Ancestry returns the causal past of the given block, itself included.
func (d *DAG) Ancestry(ref block.Ref) []block.Ref { return d.g.Ancestry(ref) }

// HappenedBefore reports the Lamport happened-before relation the block
// DAG encodes (paper Section 1): a → b iff a is reachable from... iff b's
// reference chain reaches back to a (a ⇀+ b). O(1) for non-equivocating
// builders, like Reaches.
func (d *DAG) HappenedBefore(a, b block.Ref) bool { return d.g.Reaches(a, b) }

// Concurrent reports that neither block causally precedes the other —
// the parallelism a DAG admits and a chain forbids. O(1) for
// non-equivocating builders, like Reaches.
func (d *DAG) Concurrent(a, b block.Ref) bool {
	return a != b && !d.g.Reaches(a, b) && !d.g.Reaches(b, a)
}

// ByBuilder returns the blocks built by the given server ordered by
// sequence number (then by insertion for equivocating duplicates): a walk
// of the builder's slot column, stand-ins skipped, stopping — like All — at
// a block that cannot be read back.
func (d *DAG) ByBuilder(id types.ServerID) []*block.Block {
	chain := d.g.Chain(int(id))
	out := make([]*block.Block, 0, len(chain))
	for _, i := range chain {
		if i < len(d.base) {
			continue
		}
		b, err := d.read(i - len(d.base))
		if err != nil {
			break
		}
		out = append(out, b)
	}
	return out
}

// Equivocations returns the equivocation proofs collected so far: one
// per forked (builder, seq) slot, capped at maxEquivocations retained
// in total.
func (d *DAG) Equivocations() []Equivocation {
	return append([]Equivocation(nil), d.equivocations...)
}

// EquivocationBlocks resolves a recorded equivocation to its block pair,
// ready for export as a transferable proof.
func (d *DAG) EquivocationBlocks(e Equivocation) (*block.Block, *block.Block, bool) {
	b1, ok1 := d.Get(e.Refs[0])
	b2, ok2 := d.Get(e.Refs[1])
	if !ok1 || !ok2 {
		return nil, nil, false
	}
	return b1, b2, true
}

// Equivocators returns the distinct servers with at least one equivocation
// proof, in ascending ID order.
func (d *DAG) Equivocators() []types.ServerID {
	var out []types.ServerID
	for _, e := range d.equivocations {
		out = append(out, e.Builder)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Leq reports whether d ⩽ other as graphs (paper Section 2). For block
// DAGs built from the same blocks this coincides with subset, because a
// block's edges are determined by its content.
func (d *DAG) Leq(other *DAG) bool { return d.g.Leq(other.g) }

// Merge inserts every block of other into d in topological order,
// producing a joint block DAG G' ⩾ G_d ∪ G_other (Lemma A.7). Blocks of
// other are revalidated against d's roster on the way in.
func (d *DAG) Merge(other *DAG) error {
	for i := range other.order {
		b, err := other.read(i)
		if err != nil {
			return fmt.Errorf("dag: merge: %w", err)
		}
		if err := d.Insert(b); err != nil {
			return fmt.Errorf("dag: merge block %v: %w", b.Ref(), err)
		}
	}
	return nil
}

// Clone returns an independent copy of the DAG sharing the immutable
// blocks, the released ones read back and held by the copy. Callbacks and
// the journal are not copied; a seeded base is.
func (d *DAG) Clone() *DAG {
	cp := New(d.roster)
	if err := cp.SeedBase(d.base); err != nil {
		panic(fmt.Sprintf("dag: clone seed: %v", err))
	}
	for i := range d.order {
		b, err := d.read(i)
		if err == nil {
			err = cp.Insert(b)
		}
		if err != nil {
			// Re-inserting a valid DAG in topological order cannot
			// fail; a failure means d's invariants were broken, or its
			// journal lost a block it answered for.
			panic(fmt.Sprintf("dag: clone: %v", err))
		}
	}
	return cp
}
