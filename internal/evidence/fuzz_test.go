package evidence_test

import (
	"bytes"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dagtest"
	"blockdag/internal/evidence"
	"blockdag/internal/wire"
)

// FuzzDecode hammers the evidence frame parser the same way the block
// decoder is fuzzed: proofs arrive over gossip from arbitrary peers, so
// Decode must never panic, and anything it accepts must re-encode to a
// stable canonical frame.
func FuzzDecode(f *testing.F) {
	_, signers, err := crypto.LocalRoster(2)
	if err != nil {
		f.Fatal(err)
	}
	seal := func(preds []block.Ref, reqs ...block.Request) *block.Block {
		b := block.New(1, 0, preds, reqs)
		if err := b.Seal(signers[1]); err != nil {
			f.Fatal(err)
		}
		return b
	}
	a, b := seal(nil, block.Request{Label: "ℓ", Data: []byte("a")}), seal(nil, block.Request{Label: "ℓ", Data: []byte("b")})
	valid := evidence.New(a, b).Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// Forks whose blocks Decode refuses: wider than block.MaxRequests, and
	// citing a predecessor twice.
	f.Add(evidence.New(a, seal(nil, dagtest.Wide(block.MaxRequests+1)...)).Encode())
	f.Add(evidence.New(a, seal([]block.Ref{b.Ref(), b.Ref()})).Encode())
	// Non-canonical pair order: Decode must accept and re-canonicalize.
	w := wire.NewWriter(0)
	w.VarBytes(b.Encode())
	w.VarBytes(a.Encode())
	f.Add(w.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x02, 0x03})

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := evidence.Decode(data)
		if err != nil {
			return
		}
		enc := p.Encode()
		re, err := evidence.Decode(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted proof failed: %v", err)
		}
		if !bytes.Equal(re.Encode(), enc) {
			t.Fatal("canonical encoding not a fixed point")
		}
		if re.Equivocator() != p.Equivocator() || re.First.Seq != p.First.Seq {
			t.Fatal("round trip changed the conviction")
		}
	})
}
