package evidence_test

import (
	"bytes"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
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
	seal := func(data string) *block.Block {
		b := block.New(1, 0, nil, []block.Request{{Label: "ℓ", Data: []byte(data)}})
		if err := b.Seal(signers[1]); err != nil {
			f.Fatal(err)
		}
		return b
	}
	a, b := seal("a"), seal("b")
	valid := evidence.New(a, b).Encode()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
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
