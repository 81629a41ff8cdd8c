package crypto

import "testing"

// batchFixture builds n items signed by round-robin roster members, then
// corrupts the signatures at the given indices.
func batchFixture(t testing.TB, roster *Roster, signers []*Signer, n int, corrupt ...int) []BatchItem {
	t.Helper()
	items := make([]BatchItem, n)
	for i := range items {
		s := signers[i%len(signers)]
		msg := make([]byte, HashSize)
		msg[0], msg[1] = byte(i), byte(i>>8)
		items[i] = BatchItem{ID: s.ID(), Msg: msg, Sig: s.Sign(msg)}
	}
	for _, i := range corrupt {
		items[i].Sig = append([]byte(nil), items[i].Sig...)
		items[i].Sig[0] ^= 0xff
	}
	return items
}

// TestVerifyBatchVerdicts: verdicts match per-item Verify exactly and are
// independent of the worker count — including the inline small-batch path
// and more workers than items.
func TestVerifyBatchVerdicts(t *testing.T) {
	roster, signers, err := LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	items := batchFixture(t, roster, signers, 33, 0, 7, 32)
	items[5].ID = 99 // non-member: must fail regardless of signature
	want := make([]bool, len(items))
	for i, it := range items {
		want[i] = roster.Verify(it.ID, it.Msg, it.Sig)
	}
	for _, workers := range []int{0, 1, 2, 3, 64} {
		got := roster.VerifyBatch(items, workers)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: item %d verdict %v, Verify says %v", workers, i, got[i], want[i])
			}
		}
	}
	// The small-batch inline path (< batchSerialThreshold items).
	small := roster.VerifyBatch(items[:2], 0)
	if small[0] != want[0] || small[1] != want[1] {
		t.Fatalf("small batch verdicts %v, want %v", small, want[:2])
	}
	if got := roster.VerifyBatch(nil, 0); got != nil {
		t.Fatalf("empty batch returned %v, want nil", got)
	}
}
