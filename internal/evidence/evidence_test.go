package evidence_test

import (
	"bytes"
	"errors"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/evidence"
	"blockdag/internal/wire"
)

// fork returns two distinct validly signed blocks by server 1 at seq 0 —
// a genuine equivocation pair.
func fork(h *dagtest.Harness) (*block.Block, *block.Block) {
	a := h.Seal(1, 0, nil, block.Request{Label: "ℓ", Data: []byte("a")})
	b := h.Seal(1, 0, nil, block.Request{Label: "ℓ", Data: []byte("b")})
	return a, b
}

func TestProofRoundTrip(t *testing.T) {
	h := dagtest.NewHarness(4)
	a, b := fork(h)
	p := evidence.New(a, b)
	if err := p.Verify(h.Roster); err != nil {
		t.Fatalf("genuine fork rejected: %v", err)
	}
	if p.Equivocator() != 1 || p.First.Seq != 0 {
		t.Fatalf("wrong conviction: builder=%v seq=%d", p.Equivocator(), p.First.Seq)
	}
	dec, err := evidence.Decode(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), p.Encode()) {
		t.Fatal("decode/encode round trip changed the proof")
	}
	if err := dec.Verify(h.Roster); err != nil {
		t.Fatalf("round-tripped proof rejected: %v", err)
	}
}

// TestCanonicalOrder: the same logical proof must have exactly one
// encoding regardless of which fork the constructor saw first, and a
// frame a non-canonical encoder produced must decode to the canonical
// proof anyway.
func TestCanonicalOrder(t *testing.T) {
	h := dagtest.NewHarness(4)
	a, b := fork(h)
	ab, ba := evidence.New(a, b), evidence.New(b, a)
	if !bytes.Equal(ab.Encode(), ba.Encode()) {
		t.Fatal("pair order leaked into the encoding")
	}
	// Hand-build a swapped frame: Second before First.
	w := wire.NewWriter(0)
	w.VarBytes(ab.Second.Encode())
	w.VarBytes(ab.First.Encode())
	dec, err := evidence.Decode(w.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), ab.Encode()) {
		t.Fatal("non-canonical frame did not re-canonicalize on decode")
	}
}

// TestVerifyAdversarial walks the fixtures a byzantine relayer could
// ship: pairs that look like proofs but convict no one.
func TestVerifyAdversarial(t *testing.T) {
	h := dagtest.NewHarness(4)
	a, b := fork(h)

	t.Run("same block twice", func(t *testing.T) {
		if err := evidence.New(a, a).Verify(h.Roster); !errors.Is(err, evidence.ErrNotEquivocation) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("different slots", func(t *testing.T) {
		next := h.Seal(1, 1, []block.Ref{a.Ref()}, block.Request{Label: "ℓ", Data: []byte("c")})
		if err := evidence.New(a, next).Verify(h.Roster); !errors.Is(err, evidence.ErrNotEquivocation) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("different builders", func(t *testing.T) {
		other := h.Seal(2, 0, nil, block.Request{Label: "ℓ", Data: []byte("a")})
		if err := evidence.New(a, other).Verify(h.Roster); !errors.Is(err, evidence.ErrNotEquivocation) {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("non-roster builder", func(t *testing.T) {
		// A bigger harness signs for server 5; the 4-server roster the
		// verifier holds has never heard of it.
		big := dagtest.NewHarness(6)
		x := big.Seal(5, 0, nil, block.Request{Label: "ℓ", Data: []byte("a")})
		y := big.Seal(5, 0, nil, block.Request{Label: "ℓ", Data: []byte("b")})
		if err := evidence.New(x, y).Verify(h.Roster); err == nil {
			t.Fatal("foreign builder accepted")
		}
	})
	t.Run("tampered signature", func(t *testing.T) {
		tampered, err := block.Decode(b.Encode())
		if err != nil {
			t.Fatal(err)
		}
		tampered.Sig = append([]byte(nil), tampered.Sig...)
		tampered.Sig[0] ^= 0xff
		if err := evidence.New(a, tampered).Verify(h.Roster); err == nil {
			t.Fatal("tampered signature accepted")
		}
	})
}

// TestDecodeMalformed covers the frame-level rejections: truncations,
// trailing garbage, and bodies that are not blocks.
func TestDecodeMalformed(t *testing.T) {
	h := dagtest.NewHarness(4)
	a, b := fork(h)
	enc := evidence.New(a, b).Encode()

	cases := map[string][]byte{
		"empty":            {},
		"one byte":         {0x01},
		"one block":        func() []byte { w := wire.NewWriter(0); w.VarBytes(a.Encode()); return w.Bytes() }(),
		"truncated":        enc[:len(enc)/2],
		"trailing garbage": append(append([]byte(nil), enc...), 0xde, 0xad),
		"garbage blocks": func() []byte {
			w := wire.NewWriter(0)
			w.VarBytes([]byte{1, 2, 3})
			w.VarBytes([]byte{4, 5, 6})
			return w.Bytes()
		}(),
	}
	for name, data := range cases {
		if _, err := evidence.Decode(data); !errors.Is(err, evidence.ErrMalformed) {
			t.Errorf("%s: got %v, want ErrMalformed", name, err)
		}
	}
}
