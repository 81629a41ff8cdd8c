package interpret

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/metrics"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// refInterp is the reference the row-addressed interpreter is held against:
// the state layer the package had while it kept an index of its own — block
// states in a map keyed by reference, an ancestry watermark computed per
// block from the predecessors' (anc), a stand-in's seeded with the whole
// prune horizon, the interpretation order kept for replays — under the same
// release, replay and inspection rules, each state's block and parent kept
// beside it. Stepping the protocol (advance, retire, the counters and chain
// tips they touch) is not what changed and is borrowed from an Interpreter
// that is used for nothing else: its own rows and states stay empty.
type refInterp struct {
	in     *Interpreter
	states map[block.Ref]*blockState
	// anc, blk and parent are each state's watermark, block (none for a
	// stand-in) and parent's state; shared with the replays: they share states.
	anc    map[*blockState][]uint64
	blk    map[*blockState]*block.Block
	parent map[*blockState]*blockState
	order  []*blockState
	unread []int
	spine  map[*block.Block]bool

	asked   *refInterp
	askedAt *blockState

	visits         uint64
	sources, stack []*blockState
}

func newRef(proto protocol.Protocol, n, f int, onInd func(Indication)) *refInterp {
	return &refInterp{
		in:     New(proto, n, f, onInd),
		states: make(map[block.Ref]*blockState),
		anc:    make(map[*blockState][]uint64),
		blk:    make(map[*blockState]*block.Block),
		parent: make(map[*blockState]*blockState),
		unread: make([]int, n),
	}
}

func refRaise(anc []uint64, builder types.ServerID, to uint64) []uint64 {
	if int(builder) >= len(anc) {
		anc = append(anc, make([]uint64, int(builder)+1-len(anc))...)
	}
	anc[builder] = max(anc[builder], to)
	return anc
}

func (r *refInterp) SeedBase(entries []dag.Base, horizon map[types.ServerID]uint64) error {
	if len(r.states) > 0 {
		return errors.New("reference: SeedBase on a non-empty interpreter")
	}
	var below []uint64
	for id, seq := range horizon {
		below = refRaise(below, id, seq)
	}
	for _, e := range entries {
		st := &blockState{builder: e.Builder, seq: e.Seq}
		r.anc[st] = refRaise(slices.Clone(below), e.Builder, e.Seq+1)
		r.states[e.Ref] = st
		if ch := &r.in.chains[e.Builder]; ch.tip == nil || ch.tip.seq < e.Seq {
			ch.tip = st
		}
	}
	return nil
}

func (r *refInterp) Interpreted(ref block.Ref) bool {
	_, ok := r.states[ref]
	return ok
}

func (r *refInterp) Stats() Stats { return r.in.stats }

func (r *refInterp) read(c, x int) uint64 {
	tip := r.in.chains[c].tip
	if tip == nil || x >= len(r.anc[tip]) {
		return 0
	}
	return r.anc[tip][x]
}

func (r *refInterp) AddBlock(b *block.Block) error {
	ref := b.Ref()
	if r.Interpreted(ref) {
		return nil
	}
	if int(b.Builder) >= r.in.n {
		return fmt.Errorf("reference: block %v built by %v", ref, b.Builder)
	}
	anc := make([]uint64, int(b.Builder)+1, r.in.n)
	var parent *blockState
	for _, p := range b.Preds {
		ps, ok := r.states[p]
		if !ok {
			return fmt.Errorf("%w: block %v missing pred %v", ErrNotEligible, ref, p)
		}
		if ps.builder == b.Builder && ps.seq+1 == b.Seq {
			parent = ps
		}
		for c, w := range r.anc[ps] {
			anc = refRaise(anc, types.ServerID(c), w)
		}
	}

	r.release()
	st := &blockState{builder: b.Builder, seq: b.Seq}
	r.anc[st] = refRaise(anc, b.Builder, b.Seq+1)
	r.blk[st], r.parent[st] = b, parent
	r.order = append(r.order, st)
	ch := &r.in.chains[b.Builder]
	primary := r.spine == nil && ch.tip == parent
	if primary {
		ch.tip = st
	}

	sources, held := r.newAncestry(st)
	switch {
	case !held:
	case parent == nil || r.blk[parent] == nil:
		st.pis = make(instances)
	case parent.pis != nil && (!r.spine[r.blk[parent]] || r.spine[b]):
		st.pis, parent.pis = parent.pis, nil
	}
	if st.pis != nil {
		r.in.advance(st, b, sources, primary)
	} else {
		got := r.replay(st, func(ind Indication) {
			if ind.Block == ref {
				r.in.indicate(ind)
			}
		}).states[ref]
		st.pis, st.out = got.pis, got.out
		for _, proc := range st.pis {
			if proc != nil {
				r.in.stats.LiveInstances++
			} else {
				r.in.stats.Tombstones++
			}
		}
	}
	if len(st.out) > 0 {
		ch.held = append(ch.held, st)
		r.in.stats.OutMessages += len(st.out)
		r.in.stats.HoldingBlocks++
	}
	r.states[ref] = st
	return nil
}

func (r *refInterp) release() {
	r.asked, r.askedAt = nil, nil
	clear(r.unread)
	for x := range r.in.chains {
		own := &r.in.chains[x]
		top := r.read(x, x)
		frontier := max(top, 1) - 1
		for c := range r.in.chains {
			if c != x {
				read := r.read(c, x)
				frontier = min(frontier, read)
				r.unread[c] += int(max(top, read) - read)
			}
		}
		for ; len(own.held) > 0 && own.held[0].seq < frontier; own.held = own.held[1:] {
			st := own.held[0]
			r.in.stats.OutMessages -= len(st.out)
			r.in.stats.HoldingBlocks--
			st.out, st.released = nil, true
		}
	}
}

func (r *refInterp) replay(st *blockState, onInd func(Indication)) *refInterp {
	sc := newRef(r.in.proto, r.in.n, r.in.f, onInd)
	sc.anc, sc.blk, sc.parent = r.anc, r.blk, r.parent
	sc.spine, sc.visits = make(map[*block.Block]bool), r.visits
	for s := st; s != nil && r.blk[s] != nil; s = r.parent[s] {
		sc.spine[r.blk[s]] = true
	}
	for ref, s := range r.states {
		if r.blk[s] == nil {
			sc.states[ref] = s
		}
	}
	for _, s := range r.order[:slices.Index(r.order, st)+1] {
		if b := r.blk[s]; r.spine != nil && !sc.spine[b] {
			sc.states[b.Ref()] = s
		} else {
			_ = sc.AddBlock(b)
		}
	}
	r.visits = sc.visits
	return sc
}

func (r *refInterp) newAncestry(st *blockState) (sources []*blockState, held bool) {
	var consumed []uint64
	if parent := r.parent[st]; parent != nil {
		consumed = r.anc[parent]
	}
	r.visits++
	sources, stack, held := r.sources[:0], append(r.stack[:0], st), true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range r.blk[s].Preds {
			ps := r.states[p]
			if ps.visit == r.visits || r.blk[ps] == nil {
				continue
			}
			ps.visit = r.visits
			if ps == r.parent[st] || int(ps.builder) >= len(consumed) || ps.seq >= consumed[ps.builder] {
				sources, held = append(sources, ps), held && !ps.released
			}
			if !dominated(r.anc[ps], consumed) {
				stack = append(stack, ps)
			}
		}
	}
	r.sources, r.stack = sources, stack
	return sources, held
}

func (r *refInterp) at(ref block.Ref, table bool) (*refInterp, *blockState) {
	st, ok := r.states[ref]
	if !ok || r.blk[st] == nil {
		return r, nil
	}
	if _, held := r.newAncestry(st); st.released || !held || table && st.pis == nil {
		if r.askedAt != st {
			r.askedAt, r.asked = st, r.replay(st, nil)
		}
		r = r.asked
		st = r.states[ref]
	}
	return r, st
}

func (r *refInterp) OutMessages(ref block.Ref, label types.Label) []protocol.Message {
	if _, st := r.at(ref, false); st != nil {
		if out := outFor(st.out, label); len(out) > 0 {
			return protocol.Expand(out, r.in.n)
		}
	}
	return nil
}

func (r *refInterp) InMessages(ref block.Ref, label types.Label) []protocol.Message {
	if r, st := r.at(ref, false); st != nil {
		sources, _ := r.newAncestry(st)
		return inMessages(nil, st.builder, sources, &label)
	}
	return nil
}

func (r *refInterp) StateDigest(ref block.Ref, label types.Label) ([]byte, bool) {
	if _, st := r.at(ref, true); st != nil && st.pis[label] != nil {
		return st.pis[label].StateDigest(), true
	}
	return nil, false
}

// labelsOf returns the labels d's blocks carry requests for.
func labelsOf(d *dag.DAG) []types.Label {
	var labels []types.Label
	for b := range d.All() {
		for _, rq := range b.Requests {
			labels = append(labels, rq.Label)
		}
	}
	slices.Sort(labels)
	return slices.Compact(labels)
}

// oracleDAG draws the DAG of one seed: staggered builders, random and
// explicit-rule DAGs, and the fork shapes of TestForkAfterAdvance and its
// neighbours — an equivocator extended after the chain advanced, late forks,
// forks in a deep random DAG.
func oracleDAG(t *testing.T, seed int64) *dag.DAG {
	rng := rand.New(rand.NewSource(seed))
	switch seed % 6 {
	case 0:
		return staggeredWaves(2, 5+int(seed%4), 8)
	case 1:
		h, _ := buildRandomDAG(rng, 4, 50+rng.Intn(40))
		return h.DAG
	case 2:
		d, _ := buildDeepForkedDAG(rng, 4, 70+rng.Intn(30))
		return d
	case 3:
		h, _, _ := forkAfterAdvanceDAG()
		return h.DAG
	case 4:
		h, _ := explicitRuleDAG(rng, 4, 60+rng.Intn(30))
		return h.DAG
	}
	if dags, _ := forkedDAGs(); seed%12 == 5 {
		return dags[int(seed/12)%len(dags)]
	}
	return buildContentiousDAG(t).DAG
}

// prunedCopy cuts d at a random horizon per builder, as a pruned store is
// cut (store.pruneSet): it returns a DAG seeded with the stand-ins — per
// builder with a horizon the block below it, and every block below a
// horizon that a retained block cites, so several a builder, at different
// heights, some below their builder's horizon by far — and holding the
// retained blocks, with the base table it was seeded with.
func prunedCopy(t *testing.T, d *dag.DAG, rng *rand.Rand) (*dag.DAG, []dag.Base) {
	horizon := make([]uint64, 4)
	for x := types.ServerID(0); x < 4; x++ {
		if chain := d.ByBuilder(x); len(chain) > 2 {
			horizon[x] = uint64(rng.Intn(len(chain) / 2))
		}
	}
	return cutCopy(t, d, horizon)
}

// cutCopy cuts d, of four builders, at horizon, by builder, as prunedCopy
// describes.
func cutCopy(t *testing.T, d *dag.DAG, horizon []uint64) (*dag.DAG, []dag.Base) {
	h := dagtest.NewHarness(4) // for its roster: every harness of a size has the same
	base := make(map[block.Ref]dag.Base)
	var retained []*block.Block
	for b := range d.All() {
		if b.Seq >= horizon[b.Builder] {
			retained = append(retained, b)
		} else if b.Seq+1 == horizon[b.Builder] {
			base[b.Ref()] = dag.Base{Builder: b.Builder, Seq: b.Seq, Ref: b.Ref()}
		}
	}
	for _, b := range retained {
		for _, p := range b.Preds {
			if pb, _ := d.Get(p); pb.Seq < horizon[pb.Builder] {
				base[p] = dag.Base{Builder: pb.Builder, Seq: pb.Seq, Ref: p}
			}
		}
	}
	cut := dag.New(h.Roster)
	if err := cut.SeedBase(slices.Collect(maps.Values(base))); err != nil {
		t.Fatal(err)
	}
	for _, b := range retained {
		if err := cut.InsertVerified(b); err != nil {
			t.Fatal(err)
		}
	}
	return cut, cut.Base()
}

// TestRowStatesMatchMapReference is the wall for the index swap: over 40
// seeds — staggered, random and explicit-rule DAGs, the fork shapes, each
// also cut at a prune horizon and seeded with stand-ins — an interpreter
// that keeps its states by the DAG's numbers and reads the DAG's watermarks,
// and one that numbers the blocks itself, fed the insertion order or a
// shuffled topological one, must answer every query as the map-and-anc
// reference does: after every block the indications so far, Stats, the
// chains' unread counts and the block's own buffers and digests (the cache
// warm); at the end Interpreted, OutMessages, InMessages and StateDigest of
// every block, stand-in and label (the cache cold: most of it released and
// replayed), and Blocks.
func TestRowStatesMatchMapReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			d := oracleDAG(t, seed)
			cut, base := prunedCopy(t, d, rng)
			if seed <= 6 && len(base) < 4 {
				t.Fatalf("the cut left %d stand-ins", len(base))
			}
			for _, tc := range []struct {
				name string
				d    *dag.DAG
				base []dag.Base
				over bool
			}{
				{"own numbers", d, nil, false},
				{"over the DAG", d, nil, true},
				{"over the seeded DAG", cut, base, true},
			} {
				order := tc.d.Blocks()
				if seed%2 == 1 {
					order = randomTopoOrder(tc.d, rng)
				}
				matchReference(t, tc.name, tc.d, tc.base, order, tc.over)
			}
		})
	}
}

func matchReference(t *testing.T, ctx string, d *dag.DAG, base []dag.Base, order []*block.Block, over bool) {
	t.Helper()
	labels := labelsOf(d)
	refInd, refInds := collectInds()
	ref := newRef(brb.Protocol{}, 4, 1, refInd)
	onInd, inds := collectInds()
	opts := []Option{WithMetrics(&metrics.Metrics{})}
	if over {
		opts = append(opts, Over(d))
	}
	it := New(brb.Protocol{}, 4, 1, onInd, opts...)
	if base != nil {
		if err := ref.SeedBase(base, d.BaseHorizon()); err != nil {
			t.Fatal(err)
		}
		if err := it.SeedBase(base); err != nil {
			t.Fatal(err)
		}
	}
	same := func(when string, refs []block.Ref, labels []types.Label) {
		t.Helper()
		for _, ref1 := range refs {
			if got, want := it.Interpreted(ref1), ref.Interpreted(ref1); got != want {
				t.Fatalf("%s, %s: Interpreted(%v) = %v, reference %v", ctx, when, ref1, got, want)
			}
			for _, label := range labels {
				if got, want := it.OutMessages(ref1, label), ref.OutMessages(ref1, label); !equalMessages(got, want) {
					t.Fatalf("%s, %s: OutMessages(%v, %s) = %v, reference %v", ctx, when, ref1, label, got, want)
				}
				if got, want := it.InMessages(ref1, label), ref.InMessages(ref1, label); !equalMessages(got, want) {
					t.Fatalf("%s, %s: InMessages(%v, %s) = %v, reference %v", ctx, when, ref1, label, got, want)
				}
				got, ok := it.StateDigest(ref1, label)
				want, has := ref.StateDigest(ref1, label)
				if ok != has || !bytes.Equal(got, want) {
					t.Fatalf("%s, %s: StateDigest(%v, %s) = %x, %v; reference %x, %v", ctx, when, ref1, label, got, ok, want, has)
				}
			}
		}
	}
	for i, b := range order {
		if err, rerr := it.AddBlock(b), ref.AddBlock(b); err != nil || rerr != nil {
			t.Fatalf("%s: block %d: %v, reference %v", ctx, i, err, rerr)
		}
		when := fmt.Sprint("after block ", i)
		if !reflect.DeepEqual(*inds, *refInds) {
			t.Fatalf("%s, %s: indications %v, reference %v", ctx, when, *inds, *refInds)
		}
		if it.stats != ref.Stats() {
			t.Fatalf("%s, %s: stats %+v, reference %+v", ctx, when, it.stats, ref.Stats())
		}
		for c, unread := range it.ChainUnread() {
			if int(unread) != ref.unread[c] || it.unread[c] != ref.unread[c] {
				t.Fatalf("%s, %s: chain %d has %d blocks unread, reference %d", ctx, when, c, unread, ref.unread[c])
			}
		}
		if got := countInterpreted(it, order); got != i+1 {
			t.Fatalf("%s, %s: %d blocks interpreted", ctx, when, got)
		}
		same(when, []block.Ref{b.Ref()}, labels[:min(len(labels), 3)])
	}
	refs := append(d.Refs(), block.Ref{0xff}) // stand-ins first, and one that is no block
	same("at the end", refs, labels)
}
