package block

import (
	"bytes"
	"testing"

	"blockdag/internal/crypto"
)

// FuzzDecode hammers the untrusted-input path: Decode must never panic,
// and anything it accepts must re-encode to an equivalent block.
func FuzzDecode(f *testing.F) {
	_, signers, err := crypto.LocalRoster(2)
	if err != nil {
		f.Fatal(err)
	}
	// Seed with real encodings.
	g := New(0, 0, nil, []Request{{Label: "ℓ", Data: []byte("42")}})
	if err := g.Seal(signers[0]); err != nil {
		f.Fatal(err)
	}
	child := New(0, 1, []Ref{g.Ref()}, nil)
	if err := child.Seal(signers[0]); err != nil {
		f.Fatal(err)
	}
	f.Add(g.Encode())
	f.Add(child.Encode())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})
	// Seed an over-budget encoding so the payload-limit branch is in the
	// corpus from the start.
	oversized := New(0, 0, nil, []Request{
		{Label: "big", Data: make([]byte, MaxPayloadBytes)},
	})
	if err := oversized.Seal(signers[0]); err != nil {
		f.Fatal(err)
	}
	f.Add(oversized.Encode())
	// The two shapes no correct builder seals: one request past
	// MaxRequests, and a predecessor cited twice.
	wide := make([]Request, MaxRequests+1)
	for i := range wide {
		wide[i] = Request{Label: "w"}
	}
	repeated := New(0, 1, []Ref{g.Ref(), g.Ref()}, nil)
	for _, b := range []*Block{New(0, 0, nil, wide), repeated} {
		if err := b.Seal(signers[0]); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Encode())
	}
	// Builder 0, seq 0, a predecessor count of 0 padded to two bytes, no
	// requests, no signature: refused, and in the corpus from the start.
	f.Add(append(append([]byte{13}, make([]byte, 10)...), 0x80, 0x00, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := Decode(data)
		if err != nil {
			return
		}
		// Bounds invariant: no accepted block carries more than a correct
		// builder packs.
		payload := 0
		for _, rq := range b.Requests {
			payload += len(rq.Label) + len(rq.Data)
		}
		if payload > MaxPayloadBytes {
			t.Fatalf("accepted block carries %d payload bytes, budget %d", payload, MaxPayloadBytes)
		}
		if len(b.Requests) > MaxRequests || repeatedPred(b.Preds) {
			t.Fatalf("accepted block carries %d requests (bound %d) or a repeated predecessor", len(b.Requests), MaxRequests)
		}
		// Encode-once invariant: the accepted frame is the block — Encode
		// returns it, the fields view it — and it is the one encoding of
		// those fields: a padded varint does not decode, so the reference
		// computed over the body as sent is the hash of what the fields
		// re-encode to.
		if !bytes.Equal(b.Encode(), data) {
			t.Fatal("decoded block's Encode is not the decoded input")
		}
		fieldsAreTheFrame(t, b)
		if Ref(crypto.Hash(signingBytes(b))) != b.Ref() {
			t.Fatal("accepted block's reference is not the hash of its fields' encoding")
		}
		re, err := Decode(b.Encode())
		if err != nil {
			t.Fatalf("re-decode of accepted block failed: %v", err)
		}
		if re.Ref() != b.Ref() {
			t.Fatal("re-encoded block changed its reference")
		}
		if !bytes.Equal(re.Sig, b.Sig) {
			t.Fatal("re-encoded block changed its signature")
		}
	})
}
