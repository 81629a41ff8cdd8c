package dag

import (
	"bytes"
	"errors"
	"testing"

	"blockdag/internal/block"
)

// TestEquivocationProofRoundTrip: a detected equivocation exports as a
// block pair that verifies standalone — even after an encode/decode round
// trip, i.e. when shipped to a third party.
func TestEquivocationProofRoundTrip(t *testing.T) {
	roster, signers := fixture(t, 2)
	d := New(roster)
	mustInsert(t, d, sealed(t, signers[0], 0, nil, nil))
	forkA := sealed(t, signers[0], 1, []block.Ref{d.Blocks()[0].Ref()}, nil)
	forkB := sealed(t, signers[0], 1, []block.Ref{d.Blocks()[0].Ref()},
		[]block.Request{{Label: "x", Data: []byte("other")}})
	mustInsert(t, d, forkA, forkB)

	eqs := d.Equivocations()
	if len(eqs) != 1 {
		t.Fatalf("equivocations = %v", eqs)
	}
	b1, b2, ok := d.EquivocationBlocks(eqs[0])
	if !ok {
		t.Fatal("proof blocks missing from store")
	}
	if err := VerifyEquivocationProof(roster, b1, b2); err != nil {
		t.Fatalf("fresh proof rejected: %v", err)
	}

	// Ship the proof: encode, decode, verify with only the roster.
	r1, err := block.Decode(b1.Encode())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := block.Decode(b2.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyEquivocationProof(roster, r1, r2); err != nil {
		t.Fatalf("shipped proof rejected: %v", err)
	}
}

func TestEquivocationProofRejectsForgeries(t *testing.T) {
	roster, signers := fixture(t, 3)
	g0 := sealed(t, signers[0], 0, nil, nil)
	g0b := sealed(t, signers[0], 0, nil, []block.Request{{Label: "x"}})
	g1 := sealed(t, signers[1], 0, nil, nil)
	chained := sealed(t, signers[0], 1, []block.Ref{g0.Ref()}, nil)

	cases := []struct {
		name   string
		b1, b2 *block.Block
	}{
		{"different builders", g0, g1},
		{"different seqs", g0, chained},
		{"identical blocks", g0, g0},
	}
	for _, tc := range cases {
		if err := VerifyEquivocationProof(roster, tc.b1, tc.b2); !errors.Is(err, ErrNotEquivocation) {
			t.Errorf("%s: err = %v, want ErrNotEquivocation", tc.name, err)
		}
	}

	// Tampered signature invalidates the proof.
	bad, err := block.Decode(bytes.Clone(g0b.Encode())) // a copy: bad.Sig is a view of what it decodes
	if err != nil {
		t.Fatal(err)
	}
	bad.Sig[0] ^= 0xff
	if err := VerifyEquivocationProof(roster, g0, bad); !errors.Is(err, ErrNotEquivocation) {
		t.Errorf("tampered proof accepted: %v", err)
	}
}
