// Package block implements the block type of the paper's Definition 3.1.
//
// A block B carries (i) the identifier n of the server that built it,
// (ii) a sequence number k, (iii) a list of hashes of predecessor blocks,
// (iv) a list of (label, request) pairs injecting user requests into
// protocol instances, and (v) a signature σ = sign(n, ref(B)).
//
// ref(B) is a secure cryptographic hash computed from n, k, preds and rs —
// but not σ — so sign(B.n, ref(B)) is well defined (Definition 3.1). By
// collision resistance a block and its reference are used interchangeably.
// Because a block's reference covers the references of its predecessors,
// reference cycles between blocks are computationally infeasible
// (Lemma 3.2): a secure-timeline / happened-before ordering.
package block

import (
	"encoding/hex"
	"errors"
	"fmt"

	"blockdag/internal/crypto"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// Ref is a block reference: the hash ref(B) of Definition 3.1.
type Ref [crypto.HashSize]byte

// String renders the first 8 hex digits, enough for logs and DOT output.
func (r Ref) String() string { return hex.EncodeToString(r[:4]) }

// Request is one (ℓ, r) pair carried in a block's rs field: a literal
// transcription of a user request r for protocol instance ℓ. The request
// payload is opaque to the DAG layers; the embedded protocol P decodes it.
type Request struct {
	Label types.Label
	Data  []byte
}

// Structural limits enforced when decoding untrusted blocks. They bound
// allocations, not protocol semantics; producers stay far below them.
const (
	// MaxPreds bounds the predecessor list of a single block.
	MaxPreds = 1 << 16
	// MaxRequests bounds the request list of a single block.
	MaxRequests = 1 << 16
	// MaxPayloadBytes bounds the cumulative request payload of a single
	// block: the sum of len(Label)+len(Data) over its rs field.
	// MaxRequests bounds the element count but not the bytes, so without
	// this budget a hostile peer could force multi-megabyte allocations
	// per block before the signature is ever checked. Producers must stay
	// under it or every correct peer discards their blocks; every request
	// source drains against MaxProducerPayloadBytes, which keeps honest
	// builders below it by construction.
	MaxPayloadBytes = 4 << 20
	// MaxProducerPayloadBytes is the producer-side drain budget: the most
	// request payload a correct builder packs into one block. It leaves
	// headroom under MaxPayloadBytes so a sealed block always decodes on
	// every peer. The request source — mempool.Pool — caps its drains
	// against it and refuses single requests that could never fit.
	MaxProducerPayloadBytes = MaxPayloadBytes - (64 << 10)
)

// ErrPayloadTooLarge reports a decoded block whose cumulative request
// payload exceeds MaxPayloadBytes. Decoding aborts before the oversized
// request data is retained.
var ErrPayloadTooLarge = errors.New("block: request payload exceeds budget")

// Block is one block of Definition 3.1. Blocks are immutable once sealed
// (signed); all mutation happens through the Builder in package gossip
// before sealing. Use the exported fields read-only.
type Block struct {
	// Builder is n: the identifier of the server which built the block.
	Builder types.ServerID
	// Seq is the sequence number k ∈ N0. Seq == 0 marks a genesis block.
	Seq uint64
	// Preds holds ref(B_1), ..., ref(B_k): hashes of predecessor blocks.
	Preds []Ref
	// Requests holds the rs field: label/request pairs.
	Requests []Request
	// Sig is σ = sign(Builder, ref(B)).
	Sig []byte

	ref Ref    // cached ref(B), computed at seal/decode time
	enc []byte // cached canonical wire frame, set at seal/decode time
}

// New assembles an unsealed block. Slices are copied at the boundary. The
// block has no signature and no cached reference until Seal is called.
func New(builder types.ServerID, seq uint64, preds []Ref, requests []Request) *Block {
	b := &Block{
		Builder:  builder,
		Seq:      seq,
		Preds:    append([]Ref(nil), preds...),
		Requests: make([]Request, len(requests)),
	}
	for i, rq := range requests {
		b.Requests[i] = Request{Label: rq.Label, Data: append([]byte(nil), rq.Data...)}
	}
	return b
}

// SigningBytes returns the canonical encoding of (n, k, preds, rs) — the
// preimage of ref(B). The signature is deliberately excluded.
func (b *Block) SigningBytes() []byte {
	w := wire.NewWriter(64 + len(b.Preds)*crypto.HashSize)
	w.Uint16(uint16(b.Builder))
	w.Uint64(b.Seq)
	w.Uvarint(uint64(len(b.Preds)))
	for _, p := range b.Preds {
		w.Bytes32(p)
	}
	w.Uvarint(uint64(len(b.Requests)))
	for _, rq := range b.Requests {
		w.String(string(rq.Label))
		w.VarBytes(rq.Data)
	}
	return w.Bytes()
}

// Seal computes ref(B) and signs it with the builder's signer, completing
// the block per Definition 3.1: σ = sign(n, ref(B)).
//
// Seal also caches the block's canonical wire frame: it already had to
// build the signing body for hashing, so assembling the full frame here
// costs one small copy and makes every later Encode free (the encode-once
// invariant; see Encode).
func (b *Block) Seal(signer *crypto.Signer) error {
	if signer.ID() != b.Builder {
		return fmt.Errorf("block: signer %v cannot seal block built by %v", signer.ID(), b.Builder)
	}
	body := b.SigningBytes()
	b.ref = Ref(crypto.Hash(body))
	b.Sig = signer.Sign(b.ref[:])
	w := wire.NewWriter(len(body) + len(b.Sig) + 4)
	w.VarBytes(body)
	w.VarBytes(b.Sig)
	b.enc = w.Bytes()
	return nil
}

// Ref returns ref(B). It must only be called on sealed or decoded blocks;
// calling it earlier returns the zero Ref.
func (b *Block) Ref() Ref { return b.ref }

// IsGenesis reports whether the block is a genesis block (k = 0). A
// genesis block cannot have a parent, since 0 is minimal in N0.
func (b *Block) IsGenesis() bool { return b.Seq == 0 }

// VerifySignature confirms verify(B.n, B.σ): that Builder built (signed)
// this block — check (i) of Definition 3.3.
func (b *Block) VerifySignature(roster *crypto.Roster) bool {
	return roster.Verify(b.Builder, b.ref[:], b.Sig)
}

// HasPred reports whether ref appears in b.Preds.
func (b *Block) HasPred(ref Ref) bool {
	for _, p := range b.Preds {
		if p == ref {
			return true
		}
	}
	return false
}

// Encode returns the canonical wire encoding of the sealed block,
// including the signature.
//
// Encode-once invariant: for a sealed or decoded block the frame was
// computed exactly once (at Seal or Decode) and Encode returns the cached
// slice with zero allocation. The returned bytes are therefore SHARED —
// callers must treat them as read-only and never write into them. The
// block's logical identity is immune to such writes regardless (its
// fields, reference and signature never alias the frame: Decode copies
// every field out of the frame, and Seal computes ref and Sig before the
// frame exists), but a caller that scribbles on the returned slice would
// corrupt what every other consumer of the encoding observes. The
// alias-safety contract is property-tested in encodeonce_test.go.
//
// An unsealed block (no Seal/Decode yet) serializes freshly on every
// call and nothing is cached, since its fields may still change.
func (b *Block) Encode() []byte {
	if b.enc != nil {
		return b.enc
	}
	return b.encode()
}

func (b *Block) encode() []byte {
	body := b.SigningBytes()
	w := wire.NewWriter(len(body) + len(b.Sig) + 4)
	w.VarBytes(body)
	w.VarBytes(b.Sig)
	return w.Bytes()
}

// EncodedSize returns len(Encode()) — for a sealed or decoded block
// without serializing anything. Callers use it to presize composite
// frames (gossip envelopes, evidence proofs, sync batches).
func (b *Block) EncodedSize() int {
	if b.enc != nil {
		return len(b.enc)
	}
	return len(b.encode())
}

// AppendEncode appends the canonical wire encoding to dst and returns the
// extended slice, copying from the cached frame when present. It never
// retains dst and never hands out the cache itself, so the result is
// freely mutable by the caller.
func (b *Block) AppendEncode(dst []byte) []byte {
	if b.enc != nil {
		return append(dst, b.enc...)
	}
	return append(dst, b.encode()...)
}

// ErrMalformed reports a block that failed structural decoding.
var ErrMalformed = errors.New("block: malformed encoding")

// Decode parses a block from its wire encoding, enforcing structural
// limits against untrusted input, and computes its reference. It does not
// verify the signature; callers validate via Definition 3.3 checks.
//
// Decode takes ownership of data: on success the slice is retained as the
// block's cached canonical frame, so later Encode calls return it without
// re-serializing (and the byte-for-byte wire form is stable across hops
// even if the sender used a non-minimal varint somewhere). Callers must
// not mutate data after a successful Decode. The block's fields never
// alias data — every field is copied out by the wire reader — so decoding
// from a buffer that is later overwritten corrupts only the cached frame,
// never the block's identity; still, pass a slice you are done writing.
func Decode(data []byte) (*Block, error) {
	outer := wire.NewReader(data)
	body := outer.VarBytes()
	sig := outer.VarBytes()
	if err := outer.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}

	r := wire.NewReader(body)
	b := &Block{
		Builder: types.ServerID(r.Uint16()),
		Seq:     r.Uint64(),
	}
	nPreds := r.Count(MaxPreds)
	if r.Err() == nil && nPreds > 0 {
		b.Preds = make([]Ref, nPreds)
		for i := 0; i < nPreds; i++ {
			b.Preds[i] = r.Bytes32()
		}
	}
	nReqs := r.Count(MaxRequests)
	if r.Err() == nil && nReqs > 0 {
		b.Requests = make([]Request, nReqs)
		payload := 0
		for i := 0; i < nReqs; i++ {
			b.Requests[i] = Request{
				Label: types.Label(r.String()),
				Data:  r.VarBytes(),
			}
			payload += len(b.Requests[i].Label) + len(b.Requests[i].Data)
			if payload > MaxPayloadBytes {
				return nil, fmt.Errorf("%w: %d bytes after %d requests, budget %d",
					ErrPayloadTooLarge, payload, i+1, MaxPayloadBytes)
			}
		}
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	b.Sig = sig
	b.ref = Ref(crypto.Hash(body))
	b.enc = data
	return b, nil
}

// ParentOf reports whether candidate is the parent of b: same builder and
// sequence number exactly one less (Definition 3.1). The caller ensures
// candidate is actually referenced in b.Preds.
func (b *Block) ParentOf(candidate *Block) bool {
	return candidate.Builder == b.Builder && !b.IsGenesis() && candidate.Seq == b.Seq-1
}

// VerifyBatch checks Definition 3.3(i) — builder membership and signature
// — for many blocks at once, amortizing the Ed25519 work across workers
// goroutines (0 = GOMAXPROCS, 1 = serial; see crypto.Roster.VerifyBatch).
// The verdicts are positionally aligned with blocks and independent of
// worker count. Blocks must be sealed or decoded (a zero reference fails
// its signature check, as it should).
func VerifyBatch(roster *crypto.Roster, blocks []*Block, workers int) []bool {
	items := make([]crypto.BatchItem, len(blocks))
	for i, b := range blocks {
		items[i] = crypto.BatchItem{ID: b.Builder, Msg: b.ref[:], Sig: b.Sig}
	}
	return roster.VerifyBatch(items, workers)
}
