package block

import (
	"testing"

	"blockdag/internal/crypto"
)

func benchFixture(b *testing.B) (*crypto.Roster, []*crypto.Signer, *Block) {
	b.Helper()
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		b.Fatal(err)
	}
	preds := make([]Ref, 4)
	for i := range preds {
		preds[i] = Ref{byte(i)}
	}
	reqs := []Request{
		{Label: "pay/0", Data: make([]byte, 64)},
		{Label: "pay/1", Data: make([]byte, 64)},
	}
	blk := New(1, 7, preds, reqs)
	if err := blk.Seal(signers[1]); err != nil {
		b.Fatal(err)
	}
	return roster, signers, blk
}

func BenchmarkSeal(b *testing.B) {
	_, signers, blk := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := New(blk.Builder, blk.Seq, blk.Preds, blk.Requests)
		if err := fresh.Seal(signers[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifySignature(b *testing.B) {
	roster, _, blk := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !blk.VerifySignature(roster) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	_, _, blk := benchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = blk.Encode()
	}
}

// BenchmarkEncodeOnce shows the encode-once invariant: Encode on a
// sealed block returns the cached canonical frame with 0 allocs/op — any
// allocation here means the cache regressed to re-serialization.
// TestSealedEncodeZeroAllocs asserts the bound, so the regression fails
// `go test`.
func BenchmarkEncodeOnce(b *testing.B) {
	_, _, blk := benchFixture(b)
	b.SetBytes(int64(blk.EncodedSize()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(blk.Encode()) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	_, _, blk := benchFixture(b)
	enc := blk.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
