package crypto

import (
	"bytes"
	"testing"
	"testing/quick"

	"blockdag/internal/types"
)

func TestHashDeterministicAndSensitive(t *testing.T) {
	a := Hash([]byte("hello"), []byte("world"))
	b := Hash([]byte("hello"), []byte("world"))
	if a != b {
		t.Fatal("hash of identical input differs")
	}
	c := Hash([]byte("hello"), []byte("worlD"))
	if a == c {
		t.Fatal("hash collision on trivially different input")
	}
}

func TestKeyPairFromSeedDeterministic(t *testing.T) {
	var seed [32]byte
	seed[0] = 42
	kp1 := KeyPairFromSeed(seed)
	kp2 := KeyPairFromSeed(seed)
	if !bytes.Equal(kp1.Public, kp2.Public) {
		t.Fatal("same seed produced different public keys")
	}
	seed[0] = 43
	kp3 := KeyPairFromSeed(seed)
	if bytes.Equal(kp1.Public, kp3.Public) {
		t.Fatal("different seeds produced identical public keys")
	}
}

func TestSignVerify(t *testing.T) {
	roster, signers, err := LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("a block reference")
	sig := signers[1].Sign(msg)
	if !roster.Verify(1, msg, sig) {
		t.Fatal("valid signature rejected")
	}
	if roster.Verify(2, msg, sig) {
		t.Fatal("signature accepted for wrong server")
	}
	if roster.Verify(1, []byte("tampered"), sig) {
		t.Fatal("signature accepted for wrong message")
	}
	if roster.Verify(99, msg, sig) {
		t.Fatal("signature accepted for server outside roster")
	}
}

func TestForgedSignatureRejected(t *testing.T) {
	roster, signers, err := LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	// Server 2 tries to sign on behalf of server 1.
	msg := []byte("forged claim")
	sig := signers[2].Sign(msg)
	if roster.Verify(1, msg, sig) {
		t.Fatal("forged signature verified")
	}
}

func TestRosterParameters(t *testing.T) {
	cases := []struct {
		n, f, quorum int
	}{
		{1, 0, 1},
		{3, 0, 1},
		{4, 1, 3},
		{7, 2, 5},
		{10, 3, 7},
		{13, 4, 9},
	}
	for _, tc := range cases {
		roster, _, err := LocalRoster(tc.n)
		if err != nil {
			t.Fatalf("LocalRoster(%d): %v", tc.n, err)
		}
		if roster.N() != tc.n {
			t.Errorf("n=%d: N() = %d", tc.n, roster.N())
		}
		if roster.F() != tc.f {
			t.Errorf("n=%d: F() = %d, want %d", tc.n, roster.F(), tc.f)
		}
		if roster.Quorum() != tc.quorum {
			t.Errorf("n=%d: Quorum() = %d, want %d", tc.n, roster.Quorum(), tc.quorum)
		}
	}
}

func TestEmptyRosterRejected(t *testing.T) {
	if _, _, err := LocalRoster(0); err == nil {
		t.Fatal("LocalRoster(0) succeeded")
	}
	if _, err := NewRoster(nil); err == nil {
		t.Fatal("NewRoster(nil) succeeded")
	}
}

func TestRosterIDs(t *testing.T) {
	roster, _, err := LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	ids := roster.IDs()
	want := []types.ServerID{0, 1, 2}
	if len(ids) != len(want) {
		t.Fatalf("IDs() = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", ids, want)
		}
	}
}

func TestCounters(t *testing.T) {
	roster, _, err := LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	var c Counters
	roster.SetCounters(&c)
	// Signers must be created after SetCounters to pick the counters up,
	// and with the key the roster actually lists for server 0.
	signer, err := NewSigner(0, DevKeyPair(0), roster)
	if err != nil {
		t.Fatal(err)
	}

	msg := []byte("count me")
	sig := signer.Sign(msg)
	signer.Sign(msg)
	roster.Verify(0, msg, sig)

	if got := c.Get(Signed); got != 2 {
		t.Errorf("Signed = %d, want 2", got)
	}
	if got := c.Get(Verified); got != 1 {
		t.Errorf("Verified = %d, want 1", got)
	}
}

// TestNewSignerRejectsMismatchedKey: a signer whose key pair does not
// match the roster's entry for its claimed identity — or whose identity
// is not in the roster at all — must fail at construction, not silently
// produce blocks every honest server discards.
func TestNewSignerRejectsMismatchedKey(t *testing.T) {
	roster, _, err := LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	var seed [32]byte
	copy(seed[:], "not the dev seed")
	if _, err := NewSigner(0, KeyPairFromSeed(seed), roster); err == nil {
		t.Fatal("NewSigner accepted a key pair that does not match the roster entry")
	}
	if _, err := NewSigner(1, DevKeyPair(0), roster); err == nil {
		t.Fatal("NewSigner accepted server 0's key for server 1's identity")
	}
	if _, err := NewSigner(9, DevKeyPair(9), roster); err == nil {
		t.Fatal("NewSigner accepted a non-roster identity")
	}
	// A nil roster skips the check (detached signers are a test fixture).
	if _, err := NewSigner(0, KeyPairFromSeed(seed), nil); err != nil {
		t.Fatalf("NewSigner with nil roster: %v", err)
	}
	// The matching key still constructs.
	if _, err := NewSigner(2, DevKeyPair(2), roster); err != nil {
		t.Fatalf("NewSigner with matching key: %v", err)
	}
}

func TestNilCountersSafe(t *testing.T) {
	var c *Counters
	if c.Get(Signed) != 0 || c.Get(Verified) != 0 {
		t.Fatal("nil counters returned nonzero")
	}
	c.Add(Signed, 1) // must not panic
	c.Add(Verified, 1)
}

func TestSignVerifyProperty(t *testing.T) {
	roster, signers, err := LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(msg []byte) bool {
		sig := signers[0].Sign(msg)
		return roster.Verify(0, msg, sig) && !roster.Verify(3, msg, sig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
