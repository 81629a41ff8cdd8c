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
//
// A block is its frame: Preds, every Requests[i].Data and Sig of a sealed or
// decoded block are capped sub-slices of the bytes Encode returns, so a
// request's bytes are held once per node. Hence the rule for whoever hands
// bytes to Decode: a buffer private to one block is viewed (a gossip
// payload, the frame Seal wrote); out of a buffer shared by several (a sync
// batch, an evidence pair) the block's frame is copied once and the fields
// view that copy; and whoever holds such bytes copies before writing.
package block

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"strings"
	"unsafe"

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

// What a block may carry. Decode refuses a block past any of these rules,
// so a block that breaks one costs its receiver a count comparison and no
// interpretation. A correct builder packs up to them and no further, so its
// blocks decode on every correct server:
//   - at most MaxRequests requests: gossip drains that many from the pool;
//   - at most MaxPayloadBytes of request payload (label + data bytes): the
//     pool's drain budget, which it also holds every single request under;
//   - each predecessor once: its parent and the distinct tips of other
//     builders (ErrRepeatedPred).
const (
	// MaxPreds bounds the predecessor list of a single block.
	MaxPreds = 1 << 16
	// MaxRequests bounds the request list of a single block.
	MaxRequests = 256
	// MaxPayloadBytes bounds the cumulative request payload of a single
	// block: the sum of len(Label)+len(Data) over its rs field.
	MaxPayloadBytes = 4 << 20
)

// linearPreds is the predecessor count up to which Decode finds a repeated
// predecessor by a linear scan, without allocating; a longer list is
// sorted in a copy, so no list provokes a quadratic scan.
const linearPreds = 16

// ErrPayloadTooLarge reports a decoded block whose cumulative request
// payload exceeds MaxPayloadBytes.
var ErrPayloadTooLarge = errors.New("block: request payload exceeds budget")

// ErrRepeatedPred reports a decoded block that cites one predecessor twice.
var ErrRepeatedPred = errors.New("block: predecessor cited twice")

// Block is one block of Definition 3.1. Blocks are immutable once sealed
// (signed); all mutation happens through the Builder in package gossip
// before sealing. Use the exported fields read-only: on a sealed or decoded
// block Preds, Requests[i].Data and Sig are the frame's own bytes.
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
	enc []byte // the canonical wire frame the fields view, set at seal/decode time
}

// New assembles an unsealed block. Slices are copied at the boundary; the
// copies live until Seal moves the fields into the frame. The block has no
// signature and no cached reference until Seal is called.
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

// open serializes the fields into a buffer of exactly the frame's size —
// the length-prefixed body, room for a signature of sigLen bytes — and
// returns the body's bytes inside it.
func (b *Block) open(sigLen int) (w *wire.Writer, body []byte) {
	n := 2 + 8 + wire.UvarintLen(uint64(len(b.Preds))) + len(b.Preds)*crypto.HashSize +
		wire.UvarintLen(uint64(len(b.Requests)))
	for _, rq := range b.Requests {
		n += wire.VarBytesLen(len(rq.Label)) + wire.VarBytesLen(len(rq.Data))
	}
	w = wire.NewWriter(wire.VarBytesLen(n) + wire.VarBytesLen(sigLen))
	w.Uvarint(uint64(n))
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
	return w, w.Bytes()[w.Len()-n : w.Len() : w.Len()]
}

// Seal computes ref(B) and signs it with the builder's signer, completing
// the block per Definition 3.1: σ = sign(n, ref(B)).
//
// Seal writes the block's one frame: body and signature go into a buffer
// sized for both, the body is hashed where it lies, and the fields are
// re-pointed into it, which releases the copies New made (see Encode).
func (b *Block) Seal(signer *crypto.Signer) error {
	if signer.ID() != b.Builder {
		return fmt.Errorf("block: signer %v cannot seal block built by %v", signer.ID(), b.Builder)
	}
	w, body := b.open(crypto.SignatureSize)
	ref := Ref(crypto.Hash(body))
	w.VarBytes(signer.Sign(ref[:]))
	// No bounds: a block past them seals, and no peer decodes it.
	if _, err := b.view(w.Bytes(), w.Len(), w.Len()); err != nil {
		return fmt.Errorf("block: seal: %w", err)
	}
	b.ref = ref
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

// Encode returns the canonical wire encoding of the sealed block,
// including the signature.
//
// Encode-once invariant: for a sealed or decoded block the frame was
// written exactly once (by Seal, or by whoever filled the buffer Decode was
// handed) and Encode returns it with zero allocation. The returned bytes
// ARE the block and are shared with every other consumer of the encoding:
// read-only: copy them before writing. An unsealed block serializes
// freshly on every call, since its fields may still change.
func (b *Block) Encode() []byte {
	if b.enc != nil {
		return b.enc
	}
	w, _ := b.open(len(b.Sig))
	w.VarBytes(b.Sig)
	return w.Bytes()
}

// EncodedSize returns len(Encode()). Callers use it to presize composite
// frames (gossip envelopes, evidence proofs, sync batches).
func (b *Block) EncodedSize() int { return len(b.Encode()) }

// ErrMalformed reports a block that failed structural decoding.
var ErrMalformed = errors.New("block: malformed encoding")

// Decode parses a block from its wire encoding, enforcing what a block may
// carry (MaxRequests, MaxPayloadBytes, each predecessor once) against
// untrusted input, and computes its reference. It does not verify the
// signature; callers validate via Definition 3.3 checks.
//
// Decode takes ownership of data: on success the slice is the block. Encode
// returns it and the fields view it, so a decoded block costs at most three
// allocations whatever its request count (the block, its request table, one
// string holding every label). Hand in a buffer nobody writes again and no
// other block is decoded from (package doc). Only the canonical encoding
// decodes (wire.ErrNonMinimal), so the hash of the body re-encoded from the
// fields is Ref().
func Decode(data []byte) (*Block, error) {
	b := new(Block)
	body, err := b.view(data, MaxRequests, MaxPayloadBytes)
	if err != nil {
		return nil, err
	}
	if repeatedPred(b.Preds) {
		return nil, fmt.Errorf("%w: block %d/%d", ErrRepeatedPred, b.Builder, b.Seq)
	}
	b.ref = Ref(crypto.Hash(body))
	return b, nil
}

// repeatedPred reports whether preds names one reference twice.
func repeatedPred(preds []Ref) bool {
	if len(preds) > linearPreds {
		sorted := slices.Clone(preds)
		slices.SortFunc(sorted, func(a, b Ref) int { return bytes.Compare(a[:], b[:]) })
		return len(slices.Compact(sorted)) < len(preds)
	}
	for i, p := range preds {
		if slices.Contains(preds[:i], p) {
			return true
		}
	}
	return false
}

// view points b's fields into frame, refusing more than maxRequests
// requests or budget bytes of request payload, and returns the body inside
// it. On error b is unchanged.
func (b *Block) view(frame []byte, maxRequests, budget int) (body []byte, err error) {
	outer := wire.NewReader(frame)
	body = outer.VarBytesView()
	sig := outer.VarBytesView()
	if err := outer.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}

	r := wire.NewReader(body)
	builder, seq := types.ServerID(r.Uint16()), r.Uint64()
	preds := refsView(r.View(r.Count(MaxPreds) * crypto.HashSize))
	var reqs []Request
	if n := r.Count(maxRequests); n > 0 {
		reqs = make([]Request, n)
		again := *r // the labels are read twice: measured, then copied into one string
		labelBytes, payload := 0, 0
		for i := range reqs {
			l := len(r.VarBytesView())
			reqs[i].Data = r.VarBytesView()
			labelBytes += l
			if payload += l + len(reqs[i].Data); payload > budget {
				return nil, fmt.Errorf("%w: %d bytes after %d requests, budget %d",
					ErrPayloadTooLarge, payload, i+1, budget)
			}
		}
		if r.Err() == nil {
			var labels strings.Builder
			labels.Grow(labelBytes)
			for i := range reqs {
				off := labels.Len()
				labels.Write(again.VarBytesView())
				again.VarBytesView() // the data
				reqs[i].Label = types.Label(labels.String()[off:])
			}
		}
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	b.Builder, b.Seq, b.Preds, b.Requests, b.Sig, b.enc = builder, seq, preds, reqs, sig, frame
	return body, nil
}

// refsView returns raw, a run of whole references, as a []Ref over the same
// memory — the package's one use of unsafe. Ref is a byte array: every
// address is aligned for it, and the result spans exactly raw's bytes.
func refsView(raw []byte) []Ref {
	if len(raw) < crypto.HashSize {
		return nil
	}
	return unsafe.Slice((*Ref)(raw), len(raw)/crypto.HashSize)
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
