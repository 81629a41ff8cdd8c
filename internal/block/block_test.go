package block

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"blockdag/internal/crypto"
	"blockdag/internal/types"
)

func fixture(t *testing.T) (*crypto.Roster, []*crypto.Signer) {
	t.Helper()
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	return roster, signers
}

// signingBytes is b's body re-encoded from its fields: the preimage of
// ref(B), the signature excluded.
func signingBytes(b *Block) []byte {
	_, body := b.open(0)
	return body
}

func sealed(t *testing.T, signer *crypto.Signer, seq uint64, preds []Ref, reqs []Request) *Block {
	t.Helper()
	b := New(signer.ID(), seq, preds, reqs)
	if err := b.Seal(signer); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSealAndVerify(t *testing.T) {
	roster, signers := fixture(t)
	b := sealed(t, signers[0], 0, nil, []Request{{Label: "l1", Data: []byte("broadcast 42")}})
	if !b.VerifySignature(roster) {
		t.Fatal("freshly sealed block does not verify")
	}
	if b.Ref() == (Ref{}) {
		t.Fatal("sealed block has zero ref")
	}
}

func TestSealWrongSigner(t *testing.T) {
	_, signers := fixture(t)
	b := New(0, 0, nil, nil)
	if err := b.Seal(signers[1]); err == nil {
		t.Fatal("sealing with another server's signer succeeded")
	}
}

func TestRefExcludesSignature(t *testing.T) {
	_, signers := fixture(t)
	b1 := sealed(t, signers[0], 0, nil, nil)
	// Build the identical block again: ref must match even though Ed25519
	// signatures over the same message are identical here; more to the
	// point, the signed body must not contain Sig.
	b2 := New(0, 0, nil, nil)
	if !bytes.Equal(signingBytes(b1), signingBytes(b2)) {
		t.Fatal("signed body differs before/after sealing")
	}
}

func TestForgedBuilderRejected(t *testing.T) {
	roster, signers := fixture(t)
	// Byzantine server 1 builds a block claiming to be from server 0.
	b := New(0, 0, nil, nil)
	b.ref = Ref(crypto.Hash(signingBytes(b)))
	b.Sig = signers[1].Sign(b.ref[:])
	if b.VerifySignature(roster) {
		t.Fatal("forged block verified")
	}
}

func TestTamperedBlockRejected(t *testing.T) {
	roster, signers := fixture(t)
	b := sealed(t, signers[0], 0, nil, []Request{{Label: "l", Data: []byte("x")}})
	enc := bytes.Clone(b.Encode()) // a copy: the frame itself is the block
	// Flip a byte of the frame.
	enc[len(enc)-10] ^= 0xff
	dec, err := Decode(enc)
	if err != nil {
		// Structural failure is also an acceptable rejection.
		return
	}
	if dec.VerifySignature(roster) {
		t.Fatal("tampered block verified")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, signers := fixture(t)
	parent := sealed(t, signers[2], 0, nil, nil)
	b := sealed(t, signers[2], 1, []Ref{parent.Ref()}, []Request{
		{Label: "pay/1", Data: []byte{1, 2, 3}},
		{Label: "pay/2", Data: nil},
	})
	dec, err := Decode(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Ref() != b.Ref() {
		t.Fatalf("decoded ref %v != original %v", dec.Ref(), b.Ref())
	}
	if dec.Builder != b.Builder || dec.Seq != b.Seq {
		t.Fatal("header fields differ")
	}
	if !reflect.DeepEqual(dec.Preds, b.Preds) {
		t.Fatalf("preds differ: %v vs %v", dec.Preds, b.Preds)
	}
	if !reflect.DeepEqual(dec.Requests, b.Requests) {
		t.Fatalf("requests differ: %#v vs %#v", dec.Requests, b.Requests)
	}
	if !bytes.Equal(dec.Sig, b.Sig) {
		t.Fatal("signatures differ")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0x01},
		bytes.Repeat([]byte{0xff}, 64),
	}
	for i, in := range inputs {
		if _, err := Decode(in); err == nil {
			t.Errorf("input %d: Decode succeeded on garbage", i)
		}
	}
}

func TestDecodeRejectsOversizedPayload(t *testing.T) {
	_, signers := fixture(t)
	chunk := make([]byte, 1<<20)
	over := make([]Request, 0, 5)
	for i := 0; i < 5; i++ { // 5 MiB of payload against a 4 MiB budget
		over = append(over, Request{Label: types.Label(rune('a' + i)), Data: chunk})
	}
	b := sealed(t, signers[0], 0, nil, over)
	if _, err := Decode(b.Encode()); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("Decode of oversized block: err = %v, want ErrPayloadTooLarge", err)
	}
	// Just under the budget decodes fine: the limit is on the payload
	// sum, not the request count.
	under := []Request{{Label: "big", Data: make([]byte, MaxPayloadBytes-10)}}
	b = sealed(t, signers[0], 0, nil, under)
	if _, err := Decode(b.Encode()); err != nil {
		t.Fatalf("Decode of in-budget block: %v", err)
	}
}

// TestDecodeBoundsTheRequestCount: a block of MaxRequests requests — what
// a correct builder packs at most — decodes, and one request more does not.
func TestDecodeBoundsTheRequestCount(t *testing.T) {
	_, signers := fixture(t)
	reqs := make([]Request, MaxRequests+1)
	for i := range reqs {
		reqs[i] = Request{Label: "l", Data: []byte{byte(i)}}
	}
	if _, err := Decode(sealed(t, signers[0], 0, nil, reqs[:MaxRequests]).Encode()); err != nil {
		t.Fatalf("Decode of a block of MaxRequests requests: %v", err)
	}
	if _, err := Decode(sealed(t, signers[0], 0, nil, reqs).Encode()); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Decode of a block of MaxRequests+1 requests: err = %v, want ErrMalformed", err)
	}
}

// TestDecodeRefusesARepeatedPred: a block that cites one predecessor twice
// does not decode, on the linear scan (2 references) and on the sorted copy
// (more than linearPreds); the same lists without the repeat do.
func TestDecodeRefusesARepeatedPred(t *testing.T) {
	_, signers := fixture(t)
	for _, n := range []int{2, linearPreds + 4} {
		preds := make([]Ref, n)
		for i := range preds {
			preds[i] = Ref{byte(i), 7}
		}
		if _, err := Decode(sealed(t, signers[0], 1, preds, nil).Encode()); err != nil {
			t.Fatalf("%d distinct preds: %v", n, err)
		}
		preds[n-1] = preds[n/2-1]
		if _, err := Decode(sealed(t, signers[0], 1, preds, nil).Encode()); !errors.Is(err, ErrRepeatedPred) {
			t.Fatalf("%d preds, one cited twice: err = %v, want ErrRepeatedPred", n, err)
		}
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	_, signers := fixture(t)
	b := sealed(t, signers[0], 0, nil, nil)
	enc := append(b.Encode(), 0x00)
	if _, err := Decode(enc); err == nil {
		t.Fatal("Decode accepted trailing bytes")
	}
}

func TestRefBindsPreds(t *testing.T) {
	_, signers := fixture(t)
	g1 := sealed(t, signers[0], 0, nil, nil)
	g2 := sealed(t, signers[1], 0, nil, nil)
	a := sealed(t, signers[0], 1, []Ref{g1.Ref()}, nil)
	b := sealed(t, signers[0], 1, []Ref{g1.Ref(), g2.Ref()}, nil)
	if a.Ref() == b.Ref() {
		t.Fatal("blocks with different preds share a ref")
	}
}

// TestNoReferenceCycles demonstrates Lemma 3.2 computationally: to embed
// ref(B2) in B1.Preds, B2's ref must be known, but B2's ref covers B1's
// ref; equality would be a hash cycle. We verify the refs differ and that
// mutual reference cannot be constructed after the fact (blocks are
// immutable once sealed, and re-sealing changes the ref).
func TestNoReferenceCycles(t *testing.T) {
	_, signers := fixture(t)
	b1 := sealed(t, signers[0], 0, nil, nil)
	b2 := sealed(t, signers[1], 0, []Ref{}, nil)
	// b3 references b1; b1 cannot reference b3 without changing b1's
	// ref — which would invalidate b3's reference to it.
	b3 := sealed(t, signers[1], 1, []Ref{b2.Ref(), b1.Ref()}, nil)
	if !slices.Contains(b3.Preds, b1.Ref()) {
		t.Fatal("included pred missing from Preds")
	}
	forged := New(0, 0, []Ref{b3.Ref()}, nil)
	if err := forged.Seal(signers[0]); err != nil {
		t.Fatal(err)
	}
	if forged.Ref() == b1.Ref() {
		t.Fatal("adding a pred did not change the ref: hash cycle")
	}
}

func TestIsGenesis(t *testing.T) {
	_, signers := fixture(t)
	g := sealed(t, signers[0], 0, nil, nil)
	if !g.IsGenesis() {
		t.Fatal("seq 0 not genesis")
	}
	c := sealed(t, signers[0], 1, []Ref{g.Ref()}, nil)
	if c.IsGenesis() {
		t.Fatal("seq 1 is genesis")
	}
}

func TestNewCopiesInputs(t *testing.T) {
	preds := []Ref{{1}}
	data := []byte{9}
	b := New(0, 1, preds, []Request{{Label: "l", Data: data}})
	preds[0] = Ref{2}
	data[0] = 0
	if b.Preds[0] != (Ref{1}) {
		t.Fatal("New aliased preds slice")
	}
	if b.Requests[0].Data[0] != 9 {
		t.Fatal("New aliased request data")
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seq uint64, label string, data []byte, predSeed byte) bool {
		preds := []Ref{{predSeed}}
		b := New(types.ServerID(2), seq, preds, []Request{{Label: types.Label(label), Data: data}})
		if err := b.Seal(signers[2]); err != nil {
			return false
		}
		dec, err := Decode(b.Encode())
		if err != nil {
			return false
		}
		return dec.Ref() == b.Ref() &&
			dec.Seq == b.Seq &&
			dec.Builder == b.Builder &&
			len(dec.Requests) == 1 &&
			dec.Requests[0].Label == types.Label(label) &&
			bytes.Equal(dec.Requests[0].Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
