// Package evidence turns the DAG's equivocation detection (Figure 3)
// into transferable accountability: a Proof bundles the two signed
// blocks a byzantine builder produced for one (builder, seq) slot, in a
// canonical order, behind a wire codec any roster holder can verify
// with dag.VerifyEquivocationProof — no DAG required. A Pool retains at
// most one proof per equivocator, which both bounds memory and makes
// gossip relay terminate: a proof is forwarded exactly once per node,
// on the Add that first learns of the equivocator.
package evidence

import (
	"bytes"
	"errors"
	"fmt"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// ErrMalformed reports an evidence frame that does not decode to two
// blocks.
var ErrMalformed = errors.New("evidence: malformed encoding")

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
// by the same roster member, same sequence number, different contents.
// It delegates to dag.VerifyEquivocationProof, so a proof accepted here
// is exactly one the DAG itself would have flagged.
func (p *Proof) Verify(roster *crypto.Roster) error {
	if !roster.Contains(p.First.Builder) {
		return fmt.Errorf("%w: builder %v not in roster", dag.ErrNotEquivocation, p.First.Builder)
	}
	return dag.VerifyEquivocationProof(roster, p.First, p.Second)
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

// Pool retains verified equivocation proofs, at most one per
// equivocator. One proof is all a ban needs; keeping the first and
// dropping the rest bounds the pool at O(roster) regardless of how many
// forks a byzantine builder emits. Pool is not safe for concurrent use;
// the owning state machine serializes access.
type Pool struct {
	byBuilder map[types.ServerID]*Proof
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{byBuilder: make(map[types.ServerID]*Proof)}
}

// Add retains the proof if its equivocator has none yet, reporting
// whether the proof was newly retained. A false return means the
// equivocator was already convicted — the caller should neither re-ban
// nor re-relay.
func (p *Pool) Add(pr *Proof) bool {
	id := pr.Equivocator()
	if _, dup := p.byBuilder[id]; dup {
		return false
	}
	p.byBuilder[id] = pr
	return true
}

// Has reports whether the pool holds a proof against the given server.
func (p *Pool) Has(id types.ServerID) bool {
	_, ok := p.byBuilder[id]
	return ok
}

// Get returns the retained proof against the given server, if any.
func (p *Pool) Get(id types.ServerID) (*Proof, bool) {
	pr, ok := p.byBuilder[id]
	return pr, ok
}

// Len returns the number of convicted equivocators.
func (p *Pool) Len() int { return len(p.byBuilder) }
