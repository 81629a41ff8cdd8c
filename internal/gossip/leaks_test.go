package gossip

import (
	"encoding/binary"
	"fmt"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/simnet"
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
	if got := len(n0.g.missing); got != 2 {
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
	if got := len(n0.g.missing); got != 0 {
		t.Fatalf("missing = %d after poisoning, want 0 (FWD retries for unwanted refs)", got)
	}
	for _, ref := range []block.Ref{bad.Ref(), x1.Ref(), x2.Ref()} {
		if _, ok := n0.g.invalid[ref]; !ok {
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
	if _, ok := n0.g.missing[missing.Ref()]; !ok {
		t.Fatal("FWD state for still-wanted ref dropped")
	}
	// The missing block finally arrives; healthy must cascade in.
	n0.g.HandleMessage(1, EncodeBlockMsg(missing))
	if !n0.d.Contains(healthy.Ref()) {
		t.Fatal("healthy block not inserted after its pred arrived")
	}
}

// TestInvalidCacheBounded: under a flood of garbage blocks the invalid
// set stays within invalidCacheSize, evicting oldest-first, and the FIFO's
// backing array is compacted. The first few references arrive as corrupt
// blocks on the wire; the rest of the flood (three times the cap, so the
// dead prefix must be compacted away at least once) is fed to
// rememberInvalid directly, which spares twelve thousand signatures.
func TestInvalidCacheBounded(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	d := dag.New(roster)
	g, err := New(Config{
		Signer:     signers[0],
		Roster:     roster,
		DAG:        d,
		Transport:  net.Transport(0),
		Clock:      net.Now,
		OnEvidence: discardEvidence,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	if len(g.invalid) != len(refs) {
		t.Fatalf("invalid cache = %d entries after %d corrupt blocks", len(g.invalid), len(refs))
	}
	maxFIFO := 0
	for i := 0; i < 3*invalidCacheSize; i++ {
		var ref block.Ref
		binary.BigEndian.PutUint64(ref[:], uint64(i)+1)
		g.rememberInvalid(ref)
		refs = append(refs, ref)
		maxFIFO = max(maxFIFO, len(g.invalidFIFO))
	}
	if got := len(g.invalid); got != invalidCacheSize {
		t.Fatalf("invalid cache = %d entries, cap %d", got, invalidCacheSize)
	}
	// Exactly the newest invalidCacheSize entries survive.
	for i, ref := range refs {
		_, ok := g.invalid[ref]
		if want := i >= len(refs)-invalidCacheSize; ok != want {
			t.Fatalf("ref %d of %d: cached = %v, want %v", i, len(refs), ok, want)
		}
	}
	if len(g.invalidFIFO)-g.invalidHead != len(g.invalid) {
		t.Fatalf("FIFO bookkeeping diverged: len %d head %d live %d",
			len(g.invalidFIFO), g.invalidHead, len(g.invalid))
	}
	if maxFIFO > 2*invalidCacheSize+2 {
		t.Fatalf("FIFO backing array grew to %d despite compaction", maxFIFO)
	}
}
