package dag

import (
	"bytes"
	"errors"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/evidence"
)

// TestEquivocationProofRoundTrip: a detected equivocation exports as a
// block pair that verifies standalone — even after an encode/decode round
// trip, i.e. when shipped to a third party.
func TestEquivocationProofRoundTrip(t *testing.T) {
	roster, signers := fixture(t, 2)
	d := New(roster)
	forks := watchForks(d)
	mustInsert(t, d, sealed(t, signers[0], 0, nil, nil))
	forkA := sealed(t, signers[0], 1, []block.Ref{d.Blocks()[0].Ref()}, nil)
	forkB := sealed(t, signers[0], 1, []block.Ref{d.Blocks()[0].Ref()},
		[]block.Request{{Label: "x", Data: []byte("other")}})
	mustInsert(t, d, forkA, forkB)

	if len(*forks) != 1 {
		t.Fatalf("forks = %v", *forks)
	}
	b1, b2 := (*forks)[0][0], (*forks)[0][1]
	if b1 == nil {
		t.Fatal("the slot's first block was not read back")
	}
	if err := evidence.New(b1, b2).Verify(roster); err != nil {
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
	if err := evidence.New(r1, r2).Verify(roster); err != nil {
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
		if err := evidence.New(tc.b1, tc.b2).Verify(roster); !errors.Is(err, evidence.ErrNotEquivocation) {
			t.Errorf("%s: err = %v, want ErrNotEquivocation", tc.name, err)
		}
	}

	// Tampered signature invalidates the proof.
	bad, err := block.Decode(bytes.Clone(g0b.Encode())) // a copy: bad.Sig is a view of what it decodes
	if err != nil {
		t.Fatal(err)
	}
	bad.Sig[0] ^= 0xff
	if err := evidence.New(g0, bad).Verify(roster); !errors.Is(err, evidence.ErrNotEquivocation) {
		t.Errorf("tampered proof accepted: %v", err)
	}
}
