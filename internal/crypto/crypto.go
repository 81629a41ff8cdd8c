// Package crypto provides the cryptographic substrate assumed by the paper
// (Section 2, Cryptographic Primitives): a secure hash function # used for
// block references, and a signature scheme (sign, verify) keyed by server
// identity. We instantiate # with SHA-256 and the signature scheme with
// Ed25519, both from the Go standard library.
//
// The package also defines the Roster — the fixed, globally known set of
// servers Srvrs with n = 3f+1 — and the Signer held by each server.
package crypto

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"blockdag/internal/metrics"
	"blockdag/internal/types"
)

// HashSize is the size in bytes of hash values and block references.
const HashSize = sha256.Size

// Hash is the secure cryptographic hash function # of Definition A.1. It
// hashes the concatenation of parts. Collision and preimage resistance are
// inherited from SHA-256; per the paper we treat their failure probability
// as zero.
func Hash(parts ...[]byte) [HashSize]byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	var out [HashSize]byte
	h.Sum(out[:0])
	return out
}

// SignatureSize is the size in bytes of a signature.
const SignatureSize = ed25519.SignatureSize

// Counters tallies signature operations, counted over Families. The
// embedding's "batch signature" claim (paper Sections 4–5) is quantified by
// comparing these counts between the block DAG path and the direct-messaging
// baseline. The zero value is ready; a nil *Counters discards counts.
type Counters = metrics.Metrics

// Families declares what a Counters counts.
var Families metrics.Table

var (
	Signed   = Families.Counter("crypto_signed_total", "Ed25519 sign operations: own blocks (dag_blocks_built_total) and the state commit of each snapshot meta served; transport handshakes are not counted.")
	Verified = Families.Counter("crypto_verified_total", "Ed25519 verify operations.")
)

// KeyPair is an Ed25519 key pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// GenerateKeyPair creates a fresh key pair from the given entropy source,
// or crypto/rand if randSrc is nil.
func GenerateKeyPair(randSrc io.Reader) (KeyPair, error) {
	if randSrc == nil {
		randSrc = rand.Reader
	}
	pub, priv, err := ed25519.GenerateKey(randSrc)
	if err != nil {
		return KeyPair{}, fmt.Errorf("crypto: generate key pair: %w", err)
	}
	return KeyPair{Public: pub, Private: priv}, nil
}

// KeyPairFromSeed derives a key pair deterministically from a 32-byte
// seed. Simulations and tests use it to get reproducible identities.
func KeyPairFromSeed(seed [32]byte) KeyPair {
	priv := ed25519.NewKeyFromSeed(seed[:])
	pub, ok := priv.Public().(ed25519.PublicKey)
	if !ok {
		// ed25519.PrivateKey.Public is documented to return an
		// ed25519.PublicKey; reaching this means the standard
		// library contract was broken.
		panic("crypto: ed25519 public key has unexpected type")
	}
	return KeyPair{Public: pub, Private: priv}
}

// Roster is the fixed, globally known set of servers Srvrs. Index i holds
// the public key of server i. The paper assumes n >= 3f+1 servers to
// tolerate f byzantine servers; Roster derives f = (n-1)/3.
type Roster struct {
	keys     []ed25519.PublicKey
	counters *Counters
}

// ErrEmptyRoster reports a roster constructed without members.
var ErrEmptyRoster = errors.New("crypto: roster must have at least one server")

// NewRoster builds a roster from an ordered list of public keys. The slice
// is copied, per the copy-at-boundaries guideline.
func NewRoster(keys []ed25519.PublicKey) (*Roster, error) {
	if len(keys) == 0 {
		return nil, ErrEmptyRoster
	}
	if len(keys) > int(types.NilServer) {
		return nil, fmt.Errorf("crypto: roster of %d servers exceeds ServerID space", len(keys))
	}
	for i, k := range keys {
		if len(k) != ed25519.PublicKeySize {
			return nil, fmt.Errorf("crypto: key %d has size %d, want %d", i, len(k), ed25519.PublicKeySize)
		}
	}
	cp := make([]ed25519.PublicKey, len(keys))
	copy(cp, keys)
	return &Roster{keys: cp}, nil
}

// SetCounters installs signature-operation counters on the roster (and on
// Signers derived from it afterwards). Pass nil to disable counting.
func (r *Roster) SetCounters(c *Counters) { r.counters = c }

// Counters returns the installed signature-operation counters, nil when
// counting is off — what a metrics scrape of this roster's owner reads.
func (r *Roster) Counters() *Counters { return r.counters }

// N returns the number of servers.
func (r *Roster) N() int { return len(r.keys) }

// F returns the maximum number of byzantine servers tolerated: (n-1)/3.
func (r *Roster) F() int { return (len(r.keys) - 1) / 3 }

// Quorum returns the byzantine quorum size 2f+1.
func (r *Roster) Quorum() int { return 2*r.F() + 1 }

// Contains reports whether id is a member of the roster.
func (r *Roster) Contains(id types.ServerID) bool { return int(id) < len(r.keys) }

// PublicKey returns the public key of server id.
func (r *Roster) PublicKey(id types.ServerID) (ed25519.PublicKey, bool) {
	if !r.Contains(id) {
		return nil, false
	}
	return r.keys[id], true
}

// IDs returns all server identities in roster order.
func (r *Roster) IDs() []types.ServerID {
	ids := make([]types.ServerID, len(r.keys))
	for i := range ids {
		ids[i] = types.ServerID(i)
	}
	return ids
}

// Verify checks that sig is server id's signature over msg. It implements
// verify(s, m, σ) of the paper's signature scheme.
func (r *Roster) Verify(id types.ServerID, msg, sig []byte) bool {
	key, ok := r.PublicKey(id)
	if !ok {
		return false
	}
	r.counters.Add(Verified, 1)
	return ed25519.Verify(key, msg, sig)
}

// Signer holds one server's private key and implements sign(s, m).
type Signer struct {
	id       types.ServerID
	priv     ed25519.PrivateKey
	counters *Counters
}

// NewSigner builds the signer for server id from its key pair. The roster,
// if non-nil, supplies the signature counters and is consulted
// defensively: construction fails when id is not a roster member or the
// key pair's public key differs from the roster's key for id. A mis-wired
// signer would otherwise silently produce blocks every honest server
// discards — an outage that looks like a network problem, not the
// configuration mistake it is.
func NewSigner(id types.ServerID, kp KeyPair, roster *Roster) (*Signer, error) {
	var c *Counters
	if roster != nil {
		key, ok := roster.PublicKey(id)
		if !ok {
			return nil, fmt.Errorf("crypto: signer for server %d: not a roster member", id)
		}
		if !key.Equal(kp.Public) {
			return nil, fmt.Errorf("crypto: signer for server %d: key pair does not match the roster's public key", id)
		}
		c = roster.counters
	}
	return &Signer{id: id, priv: kp.Private, counters: c}, nil
}

// ID returns the server identity this signer signs for.
func (s *Signer) ID() types.ServerID { return s.id }

// Sign returns the signature sign(s, msg).
func (s *Signer) Sign(msg []byte) []byte {
	s.counters.Add(Signed, 1)
	return ed25519.Sign(s.priv, msg)
}

// DevKeyPair deterministically derives the development key pair of server
// i — the derivation behind LocalRoster. It exists so the roster-file dev
// fixture (package roster) can rebuild the same identities through the
// production file-format code path; deployments generate fresh random
// keys with GenerateKeyPair instead and never share a seed.
func DevKeyPair(i int) KeyPair {
	var seed [32]byte
	copy(seed[:], "blockdag deterministic seed")
	binary.BigEndian.PutUint32(seed[28:], uint32(i))
	return KeyPairFromSeed(seed)
}

// LocalRoster deterministically creates a roster of n servers together
// with each server's signer, using seeds derived from the server index.
// It is a test and simulation fixture only: simulations that model a real
// deployment (package cluster) and every CLI route their identities
// through the roster-file code path (package roster) instead, which
// reuses these keys for reproducibility but exercises the same
// load/validate/bridge code a production roster file does.
func LocalRoster(n int) (*Roster, []*Signer, error) {
	return LocalRosterWithCounters(n, nil)
}

// LocalRosterWithCounters is LocalRoster with signature-operation counters
// installed before the signers are derived, so both signing and verifying
// are tallied — the accounting behind the signature-batching experiment.
func LocalRosterWithCounters(n int, counters *Counters) (*Roster, []*Signer, error) {
	if n <= 0 {
		return nil, nil, ErrEmptyRoster
	}
	keys := make([]ed25519.PublicKey, n)
	pairs := make([]KeyPair, n)
	for i := 0; i < n; i++ {
		pairs[i] = DevKeyPair(i)
		keys[i] = pairs[i].Public
	}
	roster, err := NewRoster(keys)
	if err != nil {
		return nil, nil, err
	}
	roster.SetCounters(counters)
	signers := make([]*Signer, n)
	for i := 0; i < n; i++ {
		signers[i], err = NewSigner(types.ServerID(i), pairs[i], roster)
		if err != nil {
			return nil, nil, err
		}
	}
	return roster, signers, nil
}
