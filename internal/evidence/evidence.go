// Package evidence turns the DAG's equivocation detection (Figure 3)
// into transferable accountability: a Proof bundles the two signed
// blocks a byzantine builder produced for one (builder, seq) slot, in a
// canonical order, behind a wire codec any roster holder can verify
// (Proof.Verify) — no DAG required. A node keeps the proofs it accepts in
// one place: its peer scorer (package peerscore), one per equivocator, in
// memory; its store's head on disk.
package evidence

import (
	"bytes"
	"errors"
	"fmt"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

var (
	// ErrMalformed reports an evidence frame that does not decode to two
	// blocks.
	ErrMalformed = errors.New("evidence: malformed encoding")
	// ErrNotEquivocation reports a block pair that convicts no one.
	ErrNotEquivocation = errors.New("evidence: not an equivocation proof")
)

// Proof is a transferable equivocation proof: two distinct, validly
// signed blocks by one builder with one sequence number. The pair is
// held in canonical order (ascending by block reference) so the same
// logical proof has exactly one encoding on every honest node — the
// property that lets tests and operators compare proofs across a
// cluster byte for byte.
type Proof struct {
	First, Second *block.Block
}

// New builds a proof from a block pair, normalizing the pair order. It
// does not verify the pair; call Verify before trusting it.
func New(b1, b2 *block.Block) *Proof {
	r1, r2 := b1.Ref(), b2.Ref()
	if bytes.Compare(r1[:], r2[:]) > 0 {
		b1, b2 = b2, b1
	}
	return &Proof{First: b1, Second: b2}
}

// Equivocator returns the builder the proof convicts.
func (p *Proof) Equivocator() types.ServerID { return p.First.Builder }

// Verify checks the proof against a roster: both blocks validly signed
// by the same roster member, same sequence number, different references —
// exactly a pair the DAG would flag as a forked slot. Anyone holding the
// roster can check it, which makes a byzantine builder accountable to
// third parties (the PeerReview/Polygraph direction of the paper's
// Section 6).
func (p *Proof) Verify(roster *crypto.Roster) error {
	b1, b2 := p.First, p.Second
	switch {
	case !roster.Contains(b1.Builder):
		return fmt.Errorf("%w: builder %v not in roster", ErrNotEquivocation, b1.Builder)
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

// Encode serializes the proof: two length-prefixed block encodings in
// canonical order. The blocks' frames come from their encode-once caches
// (sealed/decoded blocks never re-serialize; see block.Encode), so this
// is two copies into a presized buffer.
func (p *Proof) Encode() []byte {
	w := wire.NewWriter(p.First.EncodedSize() + p.Second.EncodedSize() + 8)
	w.VarBytes(p.First.Encode())
	w.VarBytes(p.Second.Encode())
	return w.Bytes()
}

// Decode parses an encoded proof. The pair order is re-canonicalized on
// the way in, so even a frame produced by a non-canonical encoder
// decodes to the canonical proof. Decode performs structural checks
// only; Verify establishes that the pair actually convicts anyone.
// data is shared by the two blocks and stays the caller's: each block's
// frame is copied out of it once, and the block's fields view that copy.
func Decode(data []byte) (*Proof, error) {
	r := wire.NewReader(data)
	e1 := r.VarBytes()
	e2 := r.VarBytes()
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	b1, err := block.Decode(e1)
	if err != nil {
		return nil, fmt.Errorf("%w: first block: %v", ErrMalformed, err)
	}
	b2, err := block.Decode(e2)
	if err != nil {
		return nil, fmt.Errorf("%w: second block: %v", ErrMalformed, err)
	}
	return New(b1, b2), nil
}
