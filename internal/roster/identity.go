package roster

import (
	"fmt"
	"io"
	"path/filepath"

	"blockdag/internal/crypto"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// Identity binds one member's key material to a roster: everything a
// server process needs to participate — the shared roster, its signer
// (cross-checked against the roster entry at construction), and the
// transport authenticator that proves the identity during connection
// handshakes.
type Identity struct {
	// File is the deployment's roster.
	File *File
	// Roster is File bridged to the crypto layer. Counters installed on
	// it are picked up by Signer but not by Auth — handshake signatures
	// are transport overhead, not protocol signatures, and must not skew
	// the signature-amortization experiments.
	Roster *crypto.Roster
	// Key is this server's identity material.
	Key Key
	// Signer signs blocks as Key.ID.
	Signer *crypto.Signer

	auth *Auth
}

// Identity validates k against the roster and builds the server's
// identity: k.ID must be a member and k's public key must equal that
// member's key. Counters, if non-nil, are installed on the bridged
// roster before the signer is derived (signature-amortization
// accounting).
func (f *File) Identity(k Key, counters *crypto.Counters) (*Identity, error) {
	m, ok := f.Member(k.ID)
	if !ok {
		return nil, fmt.Errorf("roster: identity %d: not a roster member (roster has %d)", k.ID, f.N())
	}
	if !m.PublicKey.Equal(k.Pair.Public) {
		return nil, fmt.Errorf("roster: identity %d: key file does not match the roster's public key", k.ID)
	}
	r, err := f.Roster()
	if err != nil {
		return nil, err
	}
	r.SetCounters(counters)
	signer, err := crypto.NewSigner(k.ID, k.Pair, r)
	if err != nil {
		return nil, err
	}
	// The authenticator gets its own uncounted roster and signer: a
	// handshake proof is not a protocol signature, and counting it would
	// make connection churn look like signing load.
	authRoster, err := f.Roster()
	if err != nil {
		return nil, err
	}
	authSigner, err := crypto.NewSigner(k.ID, k.Pair, authRoster)
	if err != nil {
		return nil, err
	}
	return &Identity{
		File:   f,
		Roster: r,
		Key:    k,
		Signer: signer,
		auth:   &Auth{roster: authRoster, signer: authSigner},
	}, nil
}

// ID returns the identity's server id.
func (id *Identity) ID() types.ServerID { return id.Key.ID }

// Auth returns the transport authenticator proving this identity.
func (id *Identity) Auth() transport.Authenticator { return id.auth }

// Auth implements transport.Authenticator over a crypto roster and
// signer: Prove signs the challenge context, Verify checks it against the
// roster's key for the claimed identity. Safe for concurrent use.
type Auth struct {
	roster *crypto.Roster
	signer *crypto.Signer
}

var _ transport.Authenticator = (*Auth)(nil)

// Self implements transport.Authenticator.
func (a *Auth) Self() types.ServerID { return a.signer.ID() }

// Prove implements transport.Authenticator.
func (a *Auth) Prove(context []byte) []byte { return a.signer.Sign(context) }

// Verify implements transport.Authenticator.
func (a *Auth) Verify(id types.ServerID, context, sig []byte) bool {
	return a.roster.Verify(id, context, sig)
}

// Member implements transport.Authenticator.
func (a *Auth) Member(id types.ServerID) bool { return a.roster.Contains(id) }

// Fixture is a complete deployment in one value: the roster file plus
// every member's key. Simulations, examples, and tests run from fixtures;
// production deployments hold one Key per host and never assemble a
// Fixture.
type Fixture struct {
	File *File
	Keys []Key
}

// Generate builds a fixture of n fresh random identities (crypto/rand
// when randSrc is nil) — the library form of `dagroster init`. addrs, if
// non-nil, supplies each member's dial address and must have length n.
// The fixture round-trips through Encode/Decode, so generation exercises
// the same codec a deployment's files do.
func Generate(n int, addrs []string, randSrc io.Reader) (*Fixture, error) {
	if addrs != nil && len(addrs) != n {
		return nil, fmt.Errorf("roster: %d addresses for %d members", len(addrs), n)
	}
	keys := make([]Key, n)
	members := make([]Member, n)
	for i := 0; i < n; i++ {
		k, err := GenerateKey(types.ServerID(i), randSrc)
		if err != nil {
			return nil, err
		}
		keys[i] = k
		members[i] = Member{PublicKey: k.Pair.Public, Label: fmt.Sprintf("s%d", i)}
		if addrs != nil {
			members[i].Addr = addrs[i]
		}
	}
	return newFixture(members, keys)
}

// Dev builds the deterministic development fixture: the same per-index
// seed keys crypto.LocalRoster derives, but routed through the roster
// file codec — encode, decode, validate — so the dev flow and the
// production flow share one code path and cannot diverge. Simulations
// and examples that need reproducible identities use Dev; anything
// touching a real network should use Generate or dagroster-written files.
func Dev(n int) (*Fixture, error) {
	keys := make([]Key, n)
	members := make([]Member, n)
	for i := 0; i < n; i++ {
		keys[i] = Key{ID: types.ServerID(i), Pair: crypto.DevKeyPair(i)}
		members[i] = Member{PublicKey: keys[i].Pair.Public, Label: fmt.Sprintf("dev-s%d", i)}
	}
	return newFixture(members, keys)
}

// newFixture assembles and round-trips a fixture: every fixture a test or
// simulation runs from has survived the exact Encode/Decode/validate path
// a deployment's roster file takes.
func newFixture(members []Member, keys []Key) (*Fixture, error) {
	f, err := New(members)
	if err != nil {
		return nil, err
	}
	rt, err := Decode(f.Encode())
	if err != nil {
		return nil, fmt.Errorf("roster: fixture failed its own round trip: %w", err)
	}
	for _, k := range keys {
		if krt, err := DecodeKey(k.Encode()); err != nil {
			return nil, fmt.Errorf("roster: fixture key %d failed its own round trip: %w", k.ID, err)
		} else if krt.ID != k.ID || !krt.Pair.Public.Equal(k.Pair.Public) {
			return nil, fmt.Errorf("roster: fixture key %d round trip changed the key", k.ID)
		}
	}
	return &Fixture{File: rt, Keys: keys}, nil
}

// LoadFixture loads a roster file plus every member's s<i>.key file from
// keysDir — the dagroster init layout — validating each key against its
// roster entry. Simulations that replay a deployment's identities use it
// (dagsim -roster -keys); a production server holds only its own key and
// uses Load/LoadKey/Identity instead.
func LoadFixture(rosterPath, keysDir string) (*Fixture, error) {
	f, err := Load(rosterPath)
	if err != nil {
		return nil, err
	}
	keys := make([]Key, f.N())
	for i := range keys {
		k, err := LoadKey(filepath.Join(keysDir, fmt.Sprintf("s%d.key", i)))
		if err != nil {
			return nil, err
		}
		if _, err := f.Identity(k, nil); err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return &Fixture{File: f, Keys: keys}, nil
}

// Identity builds member i's identity (no counters; use Signers for the
// counted protocol roster).
func (fx *Fixture) Identity(i int) (*Identity, error) {
	if i < 0 || i >= len(fx.Keys) {
		return nil, fmt.Errorf("roster: fixture has no member %d", i)
	}
	return fx.File.Identity(fx.Keys[i], nil)
}

// Signers bridges the fixture to the crypto layer in one call: one shared
// counted roster plus every member's signer — the shape cluster and the
// direct baseline consume. Counters may be nil.
func (fx *Fixture) Signers(counters *crypto.Counters) (*crypto.Roster, []*crypto.Signer, error) {
	r, err := fx.File.Roster()
	if err != nil {
		return nil, nil, err
	}
	r.SetCounters(counters)
	signers := make([]*crypto.Signer, len(fx.Keys))
	for i, k := range fx.Keys {
		signers[i], err = crypto.NewSigner(k.ID, k.Pair, r)
		if err != nil {
			return nil, nil, err
		}
	}
	return r, signers, nil
}

// Auths builds every member's transport authenticator over one shared
// uncounted roster — what a simulation registers on simnet so cluster
// tests exercise the same Authenticator seam tcpnet drives in production.
func (fx *Fixture) Auths() ([]transport.Authenticator, error) {
	r, err := fx.File.Roster()
	if err != nil {
		return nil, err
	}
	auths := make([]transport.Authenticator, len(fx.Keys))
	for i, k := range fx.Keys {
		signer, err := crypto.NewSigner(k.ID, k.Pair, r)
		if err != nil {
			return nil, err
		}
		auths[i] = &Auth{roster: r, signer: signer}
	}
	return auths, nil
}

// Save writes the fixture to dir as dagroster init would: roster.txt plus
// s<i>.key per member. It returns the roster path.
func (fx *Fixture) Save(dir string) (string, error) {
	rosterPath := filepath.Join(dir, "roster.txt")
	if err := fx.File.Save(rosterPath); err != nil {
		return "", err
	}
	for _, k := range fx.Keys {
		if err := k.Save(filepath.Join(dir, fmt.Sprintf("s%d.key", k.ID))); err != nil {
			return "", err
		}
	}
	return rosterPath, nil
}
