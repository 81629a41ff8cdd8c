package roster

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blockdag/internal/crypto"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

func devFile(t *testing.T, n int) *Fixture {
	t.Helper()
	fx, err := Dev(n)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func TestRosterRoundTrip(t *testing.T) {
	fx := devFile(t, 4)
	enc := fx.File.Encode()
	dec, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.N() != 4 {
		t.Fatalf("N = %d", dec.N())
	}
	if dec.Hash() != fx.File.Hash() {
		t.Fatal("hash changed across round trip")
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("encoding changed across round trip")
	}
	m, ok := dec.Member(2)
	if !ok || m.Label != "dev-s2" {
		t.Fatalf("member 2 = %+v, ok=%v", m, ok)
	}
	if _, ok := dec.Member(4); ok {
		t.Fatal("member 4 exists in a 4-roster")
	}
}

func TestRosterFileOnDisk(t *testing.T) {
	dir := t.TempDir()
	fx := devFile(t, 4)
	path, err := fx.Save(dir)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Hash() != fx.File.Hash() {
		t.Fatal("hash changed across disk round trip")
	}
	k, err := LoadKey(filepath.Join(dir, "s1.key"))
	if err != nil {
		t.Fatal(err)
	}
	if k.ID != 1 || !k.Pair.Public.Equal(fx.Keys[1].Pair.Public) {
		t.Fatalf("key 1 loaded as %d", k.ID)
	}
	// Key files must be private to their owner.
	fi, err := os.Stat(filepath.Join(dir, "s1.key"))
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o600 {
		t.Fatalf("key file mode = %o, want 600", perm)
	}
}

// TestRosterTamperRejected: flipping any byte of the file — a key, an
// address, the member order, the check itself — must fail Load. Member
// order defines identity, so none of these can be silently accepted.
func TestRosterTamperRejected(t *testing.T) {
	fx := devFile(t, 4)
	enc := fx.File.Encode()

	lines := strings.SplitAfter(string(enc), "\n")
	swapped := append([]string(nil), lines...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	cases := map[string]string{
		"flipped key byte":     strings.Replace(string(enc), "member ", "member 0", 1),
		"reordered members":    strings.Join(swapped, ""),
		"truncated":            string(enc[:len(enc)-2]) + "\n",
		"uppercase hex":        strings.ToUpper(string(enc)),
		"trailing garbage":     string(enc) + "x\n",
		"edited, not rehashed": strings.Replace(string(enc), "dev-s0", "dev-sX", 1),
	}
	for name, data := range cases {
		if _, err := Decode([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestKeyTamperRejected(t *testing.T) {
	fx := devFile(t, 2)
	enc := fx.Keys[1].Encode()
	// Claiming a different server id with the same seed must fail the
	// check (and would fail Identity's cross-check anyway).
	spliced := strings.Replace(string(enc), "server 1", "server 0", 1)
	if _, err := DecodeKey([]byte(spliced)); err == nil {
		t.Error("spliced server id accepted")
	}
	// Splicing another identity's public line must fail the seed check.
	otherPub := strings.SplitAfter(string(fx.Keys[0].Encode()), "\n")[3]
	lines := strings.SplitAfter(string(enc), "\n")
	lines[3] = otherPub
	if _, err := DecodeKey([]byte(strings.Join(lines, ""))); err == nil {
		t.Error("spliced public key accepted")
	}
	if _, err := DecodeKey(enc[:len(enc)-1]); err == nil {
		t.Error("truncated key file accepted")
	}
}

// TestDevMatchesLocalRoster: the dev fixture must reproduce exactly the
// identities crypto.LocalRoster derives — it is the same fixture, routed
// through the file codec.
func TestDevMatchesLocalRoster(t *testing.T) {
	fx := devFile(t, 4)
	lr, _, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want, _ := lr.PublicKey(types.ServerID(i))
		m, _ := fx.File.Member(types.ServerID(i))
		if !m.PublicKey.Equal(want) {
			t.Fatalf("dev fixture key %d differs from LocalRoster", i)
		}
	}
}

func TestGenerateDistinctKeys(t *testing.T) {
	a, err := Generate(4, []string{"h0:1", "h1:1", "h2:1", "h3:1"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.File.Hash() == b.File.Hash() {
		t.Fatal("two Generate calls produced identical rosters — seeds are being shared")
	}
	if a.File.Addr(2) != "h2:1" {
		t.Fatalf("addr 2 = %q", a.File.Addr(2))
	}
	if b.File.Addr(0) != "" {
		t.Fatalf("addr without addrs = %q", b.File.Addr(0))
	}
}

func TestIdentityCrossChecks(t *testing.T) {
	fx := devFile(t, 4)
	id, err := fx.File.Identity(fx.Keys[2], nil)
	if err != nil {
		t.Fatal(err)
	}
	if id.ID() != 2 || id.Signer.ID() != 2 || id.Auth().Self() != 2 {
		t.Fatalf("identity ids: %d/%d/%d", id.ID(), id.Signer.ID(), id.Auth().Self())
	}
	// A key claiming an id whose roster entry holds a different key.
	wrong := Key{ID: 1, Pair: fx.Keys[2].Pair}
	if _, err := fx.File.Identity(wrong, nil); err == nil {
		t.Fatal("identity accepted a key that does not match its roster entry")
	}
	// A key for an id outside the roster.
	outside := Key{ID: 9, Pair: fx.Keys[2].Pair}
	if _, err := fx.File.Identity(outside, nil); err == nil {
		t.Fatal("identity accepted a non-member id")
	}
}

// TestAuthProvesAndVerifies: the Authenticator seam over real keys — a
// proof verifies for the prover's id, fails for another id, fails for a
// different context, and handshake signatures stay out of the protocol
// signature counters.
func TestAuthProvesAndVerifies(t *testing.T) {
	fx := devFile(t, 4)
	var counters crypto.Counters
	id0, err := fx.File.Identity(fx.Keys[0], &counters)
	if err != nil {
		t.Fatal(err)
	}
	id1, err := fx.File.Identity(fx.Keys[1], nil)
	if err != nil {
		t.Fatal(err)
	}
	nonce := bytes.Repeat([]byte{7}, transport.NonceSize)
	ctx := transport.AuthContext(transport.Version, 1, transport.ChanGossip, nonce, 0, 1)
	sig := id0.Auth().Prove(ctx)
	if !id1.Auth().Verify(0, ctx, sig) {
		t.Fatal("valid proof rejected")
	}
	if id1.Auth().Verify(2, ctx, sig) {
		t.Fatal("proof verified for the wrong identity")
	}
	otherCtx := transport.AuthContext(transport.Version, 1, transport.ChanSync, nonce, 0, 1)
	if id1.Auth().Verify(0, otherCtx, sig) {
		t.Fatal("proof verified for a different channel binding")
	}
	if !id1.Auth().Member(3) || id1.Auth().Member(4) {
		t.Fatal("membership check wrong")
	}
	if counters.Get(crypto.Signed) != 0 || counters.Get(crypto.Verified) != 0 {
		t.Fatalf("handshake ops leaked into protocol counters: %d/%d",
			counters.Get(crypto.Signed), counters.Get(crypto.Verified))
	}
	// The counted signer still counts.
	id0.Signer.Sign([]byte("block"))
	if counters.Get(crypto.Signed) != 1 {
		t.Fatalf("Signed = %d, want 1", counters.Get(crypto.Signed))
	}
}

func TestFixtureSigners(t *testing.T) {
	fx := devFile(t, 4)
	r, signers, err := fx.Signers(nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != 4 || len(signers) != 4 {
		t.Fatalf("n=%d signers=%d", r.N(), len(signers))
	}
	msg := []byte("m")
	if !r.Verify(3, msg, signers[3].Sign(msg)) {
		t.Fatal("fixture signer does not verify against fixture roster")
	}
	auths, err := fx.Auths()
	if err != nil {
		t.Fatal(err)
	}
	if len(auths) != 4 || auths[2].Self() != 2 {
		t.Fatalf("auths = %d, self = %v", len(auths), auths[2].Self())
	}
}
