package gossip

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/metrics"
	"blockdag/internal/peerscore"
	"blockdag/internal/simnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// corruptSig frames b with a flipped signature byte: the reference
// stays, the signature check fails. The flip happens in the wire frame,
// not the struct — a sealed block's cached canonical encoding is what
// EncodeBlockMsg sends, so mutating b.Sig would never reach the wire
// (the encode-once invariant working as intended; a byzantine relay
// tampers with bytes, which is what this simulates). The signature is
// the frame's final field, so its last byte is the frame's last byte.
func corruptSig(b *block.Block) []byte {
	msg := EncodeBlockMsg(b) // fresh envelope buffer, safe to mutate
	msg[len(msg)-1] ^= 0xff
	return msg
}

// TestMarkInvalidPurgesWaiters: poisoning a pending block must clear its
// registrations on *other* missing references, and FWD retry state for
// references nobody waits on anymore — the leak a byzantine flood would
// otherwise grow without bound.
func TestMarkInvalidPurgesWaiters(t *testing.T) {
	c := newCluster(t, 3)
	n0 := c.nodes[0]

	// bad will fail its signature check on receipt.
	bad := block.New(2, 0, nil, nil)
	if err := bad.Seal(c.signers[2]); err != nil {
		t.Fatal(err)
	}
	badPayload := corruptSig(bad)

	// never is a reference that will never arrive.
	var never block.Ref
	never[0] = 0xab

	// x1 (valid, builder 1) references both bad and never; x2 references
	// only never.
	x1 := block.New(1, 0, []block.Ref{bad.Ref(), never}, nil)
	if err := x1.Seal(c.signers[1]); err != nil {
		t.Fatal(err)
	}
	x2 := block.New(1, 1, []block.Ref{x1.Ref(), never}, nil)
	if err := x2.Seal(c.signers[1]); err != nil {
		t.Fatal(err)
	}

	n0.g.HandleMessage(1, EncodeBlockMsg(x1))
	n0.g.HandleMessage(1, EncodeBlockMsg(x2))
	if got := len(n0.g.pending); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	if got := missingRefs(t, n0.g); got != 2 {
		// bad.Ref() and never; x1 is buffered, so x2's wait on it
		// needs no FWD.
		t.Fatalf("missing = %d, want 2", got)
	}

	// The corrupted block arrives: x1 is poisoned (its pred can never
	// validate), and transitively x2 (it references x1).
	n0.g.HandleMessage(2, badPayload)

	if got := len(n0.g.pending); got != 0 {
		t.Fatalf("pending = %d after poisoning, want 0", got)
	}
	if got := len(n0.g.waiters); got != 0 {
		t.Fatalf("waiters = %d after poisoning, want 0 (stale entries leak)", got)
	}
	if got := missingRefs(t, n0.g); got != 0 {
		t.Fatalf("missing = %d after poisoning, want 0 (FWD retries for unwanted refs)", got)
	}
	for _, ref := range []block.Ref{bad.Ref(), x1.Ref(), x2.Ref()} {
		if !n0.g.isInvalid(ref) {
			t.Fatalf("ref %v not remembered invalid", ref)
		}
	}
}

// TestMarkInvalidKeepsLiveWaiters: purging one poisoned block must not
// drop the registrations of healthy blocks waiting on the same reference.
func TestMarkInvalidKeepsLiveWaiters(t *testing.T) {
	c := newCluster(t, 3)
	n0 := c.nodes[0]

	bad := block.New(2, 0, nil, nil)
	if err := bad.Seal(c.signers[2]); err != nil {
		t.Fatal(err)
	}
	// missing is a genesis of builder 1 that has not arrived yet.
	missing := block.New(1, 0, nil, nil)
	if err := missing.Seal(c.signers[1]); err != nil {
		t.Fatal(err)
	}

	// doomed (builder 2, fork of bad's slot is irrelevant — distinct
	// block) waits on bad + missing; healthy (builder 1) waits on
	// missing only.
	doomed := block.New(2, 1, []block.Ref{bad.Ref(), missing.Ref()}, nil)
	if err := doomed.Seal(c.signers[2]); err != nil {
		t.Fatal(err)
	}
	healthy := block.New(1, 1, []block.Ref{missing.Ref()}, nil)
	if err := healthy.Seal(c.signers[1]); err != nil {
		t.Fatal(err)
	}

	n0.g.HandleMessage(2, EncodeBlockMsg(doomed))
	n0.g.HandleMessage(1, EncodeBlockMsg(healthy))
	n0.g.HandleMessage(2, corruptSig(bad))

	if _, ok := n0.g.pending[healthy.Ref()]; !ok {
		t.Fatal("healthy block lost from pending")
	}
	if got := len(n0.g.waiters[missing.Ref()]); got != 1 {
		t.Fatalf("waiters[missing] = %d, want 1 (healthy only)", got)
	}
	if got := missingRefs(t, n0.g); got != 1 {
		t.Fatalf("missing = %d, want 1 (the still-wanted ref)", got)
	}
	// The missing block finally arrives; healthy must cascade in.
	n0.g.HandleMessage(1, EncodeBlockMsg(missing))
	if !n0.d.Contains(healthy.Ref()) {
		t.Fatal("healthy block not inserted after its pred arrived")
	}
}

// TestBufferBoundedPerBuilder: a roster member signs ten thousand blocks,
// each citing a reference nobody holds — never insertable, never invalid.
// The buffer keeps the newest maxBuffered of them, every waiter list names
// only blocks still buffered, the sender is charged for each eviction, and
// an evicted block that is cited again is asked for again.
func TestBufferBoundedPerBuilder(t *testing.T) {
	const flood = 10000
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	log := &sendLog{Transport: net.Transport(0)}
	scores := peerscore.New(peerscore.Options{Clock: net.Now})
	g := newGossip(t, Config{
		Signer: signers[0], Roster: roster, DAG: dag.New(roster),
		Transport: log, Clock: net.Now, Scores: scores, OnEvidence: discardEvidence,
	})
	// The flood's signatures are junk and its verdicts handed to handleBlock
	// as checked, which spares twenty thousand signature operations.
	unplaceable := func(seq uint64, pred block.Ref) *block.Block {
		b := block.New(1, seq, []block.Ref{pred}, nil)
		b.Sig = make([]byte, 64)
		b, err := block.Decode(b.Encode())
		if err != nil {
			t.Fatal(err)
		}
		g.handleBlock(1, b, map[block.Ref]bool{b.Ref(): true})
		return b
	}
	var first block.Ref
	for i := 0; i < flood; i++ {
		var never block.Ref
		binary.BigEndian.PutUint64(never[:], uint64(i)+1)
		if b := unplaceable(uint64(i), never); i == 0 {
			first = b.Ref()
		}
	}
	if got := len(g.pending); got != maxBuffered {
		t.Fatalf("%d blocks buffered after a flood of %d, cap %d", got, flood, maxBuffered)
	}
	if got := len(g.arrivals[1]); got != maxBuffered {
		t.Fatalf("arrival queue holds %d references, cap %d", got, maxBuffered)
	}
	if got := len(g.waiters); got != maxBuffered {
		t.Fatalf("%d references awaited by %d buffered blocks", got, maxBuffered)
	}
	for p, ws := range g.waiters {
		for _, w := range ws {
			if e := g.pending[w]; e == nil || !slices.Contains(e.blk.Preds, p) {
				t.Fatalf("waiters[%v] names %v, which is not buffered waiting for it", p, w)
			}
		}
	}
	if got := scores.Snapshot()[0].Signals[peerscore.Throttled.String()]; got != flood-maxBuffered {
		t.Fatalf("sender charged %d times, want %d", got, flood-maxBuffered)
	}
	// The oldest went first: citing it again asks for it again.
	log.sends = nil
	unplaceable(flood, first)
	if want := fmt.Sprintf("%v %d %x", types.ServerID(1), transport.ChanGossip, EncodeFwdMsg(first)); !slices.Contains(log.sends, want) {
		t.Fatalf("the evicted block was not asked for again: sent %v", log.sends)
	}
}

// TestAwaitedReferencesBoundedPerBuilder: the buffer's bound counts the
// references it waits on as well as the blocks. One signed block citing
// block.MaxPreds references nobody holds would be that many waiters keys
// and FWD frames per ask; it leaves at most maxAwaited of either (none: it
// is evicted before it asks), and its sender is charged. A flood of blocks
// citing a hundred unknown references each keeps the builder at the bound.
func TestAwaitedReferencesBoundedPerBuilder(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	log := &sendLog{Transport: net.Transport(0)}
	scores := peerscore.New(peerscore.Options{Clock: net.Now})
	m := &metrics.Metrics{}
	g := newGossip(t, Config{
		Signer: signers[0], Roster: roster, DAG: dag.New(roster),
		Transport: log, Clock: net.Now, Scores: scores, OnEvidence: discardEvidence, Metrics: m,
	})
	unknown := 0
	citing := func(seq uint64, refs int) {
		preds := make([]block.Ref, refs)
		for i := range preds {
			unknown++
			binary.BigEndian.PutUint64(preds[i][:], uint64(unknown))
		}
		b := block.New(1, seq, preds, nil)
		b.Sig = make([]byte, 64) // junk, handed over as checked
		b, err := block.Decode(b.Encode())
		if err != nil {
			t.Fatal(err)
		}
		g.handleBlock(1, b, map[block.Ref]bool{b.Ref(): true})
		g.publishState()
	}

	citing(0, block.MaxPreds)
	if got, missing := len(g.waiters), m.Get(metrics.MissingRefs); got > maxAwaited || missing > maxAwaited {
		t.Fatalf("one block citing %d unknown references left %d waiters keys, %d missing refs; bound %d", block.MaxPreds, got, missing, maxAwaited)
	}
	if got := log.fwds[1]; got > maxAwaited {
		t.Fatalf("one block citing %d unknown references cost %d FWD frames; bound %d", block.MaxPreds, got, maxAwaited)
	}
	if got := scores.Snapshot()[0].Signals[peerscore.Throttled.String()]; got != 1 {
		t.Fatalf("sender charged %d times, want once", got)
	}

	for seq := uint64(1); seq <= 2*maxAwaited/100; seq++ {
		citing(seq, 100)
	}
	if got := len(g.waiters); got > maxAwaited || g.awaiting[1] > maxAwaited || len(g.pending) != maxAwaited/100 {
		t.Fatalf("%d waiters keys, %d awaited, %d blocks buffered; want at most %d, and %d blocks", got, g.awaiting[1], len(g.pending), maxAwaited, maxAwaited/100)
	}
}

// TestBufferBoundCountsTheBuffered: blocks that were buffered for a moment
// and inserted leave the arrival queue as they leave the buffer. Behind one
// unanswerable block at its head, three times maxBuffered of the builder's
// blocks pass through out of order: nothing is evicted, nobody is charged,
// and the queue does not grow with them.
func TestBufferBoundCountsTheBuffered(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	scores := peerscore.New(peerscore.Options{Clock: net.Now})
	g := newGossip(t, Config{
		Signer: signers[0], Roster: roster, DAG: dag.New(roster),
		Transport: net.Transport(0), Clock: net.Now, Scores: scores, OnEvidence: discardEvidence,
	})
	// Signatures are junk and handed to handleBlock as checked, as above.
	build := func(seq uint64, preds ...block.Ref) *block.Block {
		b := block.New(1, seq, preds, nil)
		b.Sig = make([]byte, 64)
		b, err := block.Decode(b.Encode())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	handle := func(b *block.Block) { g.handleBlock(1, b, map[block.Ref]bool{b.Ref(): true}) }
	handle(build(1<<40, block.Ref{1}))
	var parent []block.Ref
	for seq := uint64(0); seq < 6*maxBuffered; seq += 2 {
		first := build(seq, parent...)
		second := build(seq+1, first.Ref())
		handle(second) // buffered: its parent is not here yet
		handle(first)
		parent = []block.Ref{second.Ref()}
	}
	if got := g.cfg.DAG.Len(); got != 6*maxBuffered {
		t.Fatalf("%d blocks inserted, want %d", got, 6*maxBuffered)
	}
	if got := missingRefs(t, g); got != 1 || len(g.pending) != 1 {
		t.Fatalf("%d references outstanding, %d blocks buffered; want the one unanswerable block", got, len(g.pending))
	}
	if stats := scores.Snapshot(); len(stats) != 0 {
		t.Fatalf("charged for blocks that had left the buffer: %+v", stats)
	}
	if got := len(g.arrivals[1]); got > 2*maxBuffered {
		t.Fatalf("arrival queue holds %d references for one buffered block", got)
	}
}

// TestFwdAskedOncePerTick: fifty buffered blocks of one builder cite the same
// twenty references nobody holds. A tick asks the sender for each reference
// once, not once per block.
func TestFwdAskedOncePerTick(t *testing.T) {
	const blocks, k = 50, 20
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	log := &sendLog{Transport: net.Transport(0)}
	g := newGossip(t, Config{
		Signer: signers[0], Roster: roster, DAG: dag.New(roster),
		Transport: log, Clock: net.Now, OnEvidence: discardEvidence,
	})
	refs := make([]block.Ref, k)
	for i := range refs {
		refs[i] = block.Ref{1, byte(i)}
	}
	for seq := uint64(0); seq < blocks; seq++ {
		b := block.New(1, seq, refs, nil)
		if err := b.Seal(signers[1]); err != nil {
			t.Fatal(err)
		}
		g.HandleMessage(1, EncodeBlockMsg(b))
	}
	if got := missingRefs(t, g); got != k {
		t.Fatalf("%d references outstanding, want %d", got, k)
	}
	log.fwds = nil
	runFor(net, ResendAfter)
	g.Tick()
	if got := log.fwds[1]; got != k {
		t.Fatalf("one tick sent %d FWD requests for %d references", got, k)
	}
}

// TestInvalidCacheBounded: under a flood of garbage blocks the invalid
// set stays within invalidCacheSize, evicting oldest-first (keyset's own
// tests bound the key arena behind it). The first few references arrive as
// corrupt blocks on the wire; the rest of the flood (three times the cap, so
// the dead prefix must be dropped at least once) is fed to rememberInvalid
// directly, which spares twelve thousand signatures.
func TestInvalidCacheBounded(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	d := dag.New(roster)
	g := newGossip(t, Config{
		Signer:     signers[0],
		Roster:     roster,
		DAG:        d,
		Transport:  net.Transport(0),
		Clock:      net.Now,
		OnEvidence: discardEvidence,
	})
	var refs []block.Ref
	for i := 0; i < 10; i++ {
		b := block.New(1, uint64(i), nil, []block.Request{
			{Label: types.Label(fmt.Sprintf("x/%d", i)), Data: []byte{byte(i)}},
		})
		if err := b.Seal(signers[1]); err != nil {
			t.Fatal(err)
		}
		g.HandleMessage(1, corruptSig(b))
		refs = append(refs, b.Ref())
	}
	if g.invalid.Len() != len(refs) {
		t.Fatalf("invalid cache = %d entries after %d corrupt blocks", g.invalid.Len(), len(refs))
	}
	for i := 0; i < 3*invalidCacheSize; i++ {
		var ref block.Ref
		binary.BigEndian.PutUint64(ref[:], uint64(i)+1)
		g.rememberInvalid(ref)
		refs = append(refs, ref)
	}
	if got := g.invalid.Len(); got != invalidCacheSize {
		t.Fatalf("invalid cache = %d entries, cap %d", got, invalidCacheSize)
	}
	// Exactly the newest invalidCacheSize entries survive.
	for i, ref := range refs {
		ok := g.isInvalid(ref)
		if want := i >= len(refs)-invalidCacheSize; ok != want {
			t.Fatalf("ref %d of %d: cached = %v, want %v", i, len(refs), ok, want)
		}
	}
}
