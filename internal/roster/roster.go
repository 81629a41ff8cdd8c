// Package roster makes the paper's fixed, globally known server set Srvrs
// (Section 2) a first-class deployment artifact: a versioned roster file
// naming every member's public key and dial address, plus per-server key
// files, so a multi-host deployment distributes identities as
// configuration instead of deriving them from a shared seed.
//
// # Roster file format (version 1)
//
// A roster file is line-oriented UTF-8 text in a canonical form — two
// encoders given the same members produce identical bytes, so the file's
// self-hash is well defined:
//
//	blockdag-roster/1
//	member <ed25519-public-key-hex> <dial-addr> [label]
//	member <ed25519-public-key-hex> <dial-addr> [label]
//	...
//	check <sha256-hex>
//
// One member line per server, in ServerID order: the i-th member line IS
// server i, mirroring crypto.Roster's index-is-identity convention. The
// public key is 64 lowercase hex digits. The dial address is the TCP
// address peers connect to, or "-" when unset (offline tooling such as
// dagstore needs keys, not addresses). The optional label is a free-form
// operator hint (no whitespace). Fields are separated by exactly one
// space; lines end with "\n"; no comments, no blank lines.
//
// The final check line is the lowercase hex SHA-256 over every preceding
// byte of the file (header and member lines, newlines included). Load and
// Decode refuse a file whose check does not match or whose encoding is
// not canonical, so a truncated, hand-mangled, or re-ordered roster is
// rejected rather than silently reinterpreted — member order defines
// identity, so reordering lines would reassign every key.
//
// # Key file format (version 1)
//
//	blockdag-key/1
//	server <decimal-id>
//	seed <ed25519-seed-hex>
//	public <ed25519-public-key-hex>
//	check <sha256-hex>
//
// The seed is the 32-byte Ed25519 private seed; public is derived from it
// and must match (a copy-paste splice of two key files fails to load).
// Key files are written with mode 0600 — they are the only secret in the
// system.
//
// # Bridging
//
// File.Roster converts to the crypto.Roster the DAG, gossip, and
// interpreter layers already consume — those layers are untouched by
// roster distribution. File.Identity binds one member's key file to the
// roster, yielding the crypto.Signer (defensively cross-checked against
// the roster entry) and the transport.Authenticator that proves the
// identity during connection handshakes.
//
// Dev and Generate build complete fixtures (roster plus every key);
// both round-trip through Encode/Decode, so the development flow
// exercises exactly the file-format code a production deployment relies
// on and the two can never diverge.
package roster

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"blockdag/internal/crypto"
	"blockdag/internal/types"
)

// Format headers and limits.
const (
	rosterHeader = "blockdag-roster/1"
	keyHeader    = "blockdag-key/1"

	// MaxMembers bounds a roster file's member count (the ServerID space
	// is uint16 with NilServer reserved).
	MaxMembers = int(types.NilServer)

	// MaxFileSize bounds how much of a roster or key file Load reads,
	// guarding against a mistyped path naming some multi-gigabyte file.
	MaxFileSize = 8 << 20
)

// Member is one roster entry: a server identity's public key, the address
// peers dial it on, and an optional operator label.
type Member struct {
	// PublicKey is the member's Ed25519 public key. Required.
	PublicKey ed25519.PublicKey
	// Addr is the TCP dial address ("host:port"), empty when the roster
	// is used by offline tooling only.
	Addr string
	// Label is a free-form operator hint (no whitespace). Optional.
	Label string
}

// validate checks one member's fields.
func (m Member) validate(i int) error {
	if len(m.PublicKey) != ed25519.PublicKeySize {
		return fmt.Errorf("roster: member %d: public key has %d bytes, want %d", i, len(m.PublicKey), ed25519.PublicKeySize)
	}
	if strings.ContainsAny(m.Addr, " \t\n\r") || m.Addr == "-" {
		return fmt.Errorf("roster: member %d: invalid address %q", i, m.Addr)
	}
	if strings.ContainsAny(m.Label, " \t\n\r") {
		return fmt.Errorf("roster: member %d: label %q contains whitespace", i, m.Label)
	}
	return nil
}

// File is a validated roster: the ordered member set. The i-th member is
// server i.
type File struct {
	members []Member
}

// New builds a roster file from ordered members. Members are copied.
func New(members []Member) (*File, error) {
	if len(members) == 0 {
		return nil, errors.New("roster: need at least one member")
	}
	if len(members) > MaxMembers {
		return nil, fmt.Errorf("roster: %d members exceeds the ServerID space", len(members))
	}
	cp := make([]Member, len(members))
	for i, m := range members {
		if err := m.validate(i); err != nil {
			return nil, err
		}
		cp[i] = Member{
			PublicKey: append(ed25519.PublicKey(nil), m.PublicKey...),
			Addr:      m.Addr,
			Label:     m.Label,
		}
		for j := 0; j < i; j++ {
			if cp[j].PublicKey.Equal(cp[i].PublicKey) {
				return nil, fmt.Errorf("roster: members %d and %d share a public key", j, i)
			}
		}
	}
	return &File{members: cp}, nil
}

// N returns the number of members.
func (f *File) N() int { return len(f.members) }

// Member returns server id's entry.
func (f *File) Member(id types.ServerID) (Member, bool) {
	if int(id) >= len(f.members) {
		return Member{}, false
	}
	m := f.members[id]
	return Member{
		PublicKey: append(ed25519.PublicKey(nil), m.PublicKey...),
		Addr:      m.Addr,
		Label:     m.Label,
	}, true
}

// Addr returns server id's dial address ("" when unset or unknown).
func (f *File) Addr(id types.ServerID) string {
	if int(id) >= len(f.members) {
		return ""
	}
	return f.members[id].Addr
}

// Members returns a copy of the ordered member set.
func (f *File) Members() []Member {
	out := make([]Member, len(f.members))
	for i := range f.members {
		out[i], _ = f.Member(types.ServerID(i))
	}
	return out
}

// body renders the canonical file bytes up to (not including) the check
// line.
func (f *File) body() []byte {
	var b bytes.Buffer
	b.WriteString(rosterHeader)
	b.WriteByte('\n')
	for _, m := range f.members {
		addr := m.Addr
		if addr == "" {
			addr = "-"
		}
		b.WriteString("member ")
		b.WriteString(hex.EncodeToString(m.PublicKey))
		b.WriteByte(' ')
		b.WriteString(addr)
		if m.Label != "" {
			b.WriteByte(' ')
			b.WriteString(m.Label)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// Hash returns the roster's self-hash: SHA-256 over the canonical file
// bytes preceding the check line. Two File values with equal hashes
// describe the same deployment.
func (f *File) Hash() [32]byte { return sha256.Sum256(f.body()) }

// Encode renders the canonical file bytes, check line included.
func (f *File) Encode() []byte {
	body := f.body()
	h := sha256.Sum256(body)
	return append(body, []byte("check "+hex.EncodeToString(h[:])+"\n")...)
}

// Decode parses and validates roster file bytes: canonical form, valid
// fields, matching self-hash.
func Decode(data []byte) (*File, error) {
	lines, err := splitLines(data)
	if err != nil {
		return nil, err
	}
	if len(lines) < 3 {
		return nil, errors.New("roster: file too short")
	}
	if lines[0] != rosterHeader {
		return nil, fmt.Errorf("roster: unknown header %q", lines[0])
	}
	members := make([]Member, 0, len(lines)-2)
	for i, line := range lines[1 : len(lines)-1] {
		fields := strings.Split(line, " ")
		if fields[0] != "member" || len(fields) < 3 || len(fields) > 4 {
			return nil, fmt.Errorf("roster: line %d: malformed member line", i+2)
		}
		key, err := decodeHex(fields[1], ed25519.PublicKeySize)
		if err != nil {
			return nil, fmt.Errorf("roster: member %d: %w", i, err)
		}
		m := Member{PublicKey: key, Addr: fields[2]}
		if m.Addr == "-" {
			m.Addr = ""
		}
		if len(fields) == 4 {
			m.Label = fields[3]
		}
		members = append(members, m)
	}
	check := lines[len(lines)-1]
	fields := strings.Split(check, " ")
	if fields[0] != "check" || len(fields) != 2 {
		return nil, errors.New("roster: missing check line")
	}
	sum, err := decodeHex(fields[1], sha256.Size)
	if err != nil {
		return nil, fmt.Errorf("roster: check line: %w", err)
	}
	f, err := New(members)
	if err != nil {
		return nil, err
	}
	if got := f.Hash(); !bytes.Equal(sum, got[:]) {
		return nil, errors.New("roster: check mismatch — file corrupted or edited without re-hashing")
	}
	// New normalizes, so re-encoding proves the input was canonical:
	// anything else (extra spaces, uppercase hex, reordered fields) is
	// refused rather than silently rewritten.
	if !bytes.Equal(f.Encode(), data) {
		return nil, errors.New("roster: non-canonical encoding")
	}
	return f, nil
}

// Load reads and validates a roster file.
func Load(path string) (*File, error) {
	data, err := readLimited(path)
	if err != nil {
		return nil, err
	}
	f, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return f, nil
}

// Save writes the canonical roster file (mode 0644 — rosters are public).
func (f *File) Save(path string) error {
	if err := os.WriteFile(path, f.Encode(), 0o644); err != nil {
		return fmt.Errorf("roster: save: %w", err)
	}
	return nil
}

// Roster converts to the crypto.Roster consumed by the DAG, gossip, and
// interpretation layers. Each call returns a fresh roster (counters are
// per-instance; see crypto.Roster.SetCounters).
func (f *File) Roster() (*crypto.Roster, error) {
	keys := make([]ed25519.PublicKey, len(f.members))
	for i, m := range f.members {
		keys[i] = m.PublicKey
	}
	r, err := crypto.NewRoster(keys)
	if err != nil {
		return nil, fmt.Errorf("roster: %w", err)
	}
	return r, nil
}

// Key is one server's identity material: its position in the roster and
// its Ed25519 key pair.
type Key struct {
	ID   types.ServerID
	Pair crypto.KeyPair
}

// GenerateKey creates a fresh random key for server id (crypto/rand when
// randSrc is nil).
func GenerateKey(id types.ServerID, randSrc io.Reader) (Key, error) {
	pair, err := crypto.GenerateKeyPair(randSrc)
	if err != nil {
		return Key{}, fmt.Errorf("roster: %w", err)
	}
	return Key{ID: id, Pair: pair}, nil
}

// Encode renders the canonical key file bytes.
func (k Key) Encode() []byte {
	var b bytes.Buffer
	b.WriteString(keyHeader)
	b.WriteByte('\n')
	b.WriteString("server ")
	b.WriteString(strconv.Itoa(int(k.ID)))
	b.WriteByte('\n')
	b.WriteString("seed ")
	b.WriteString(hex.EncodeToString(k.Pair.Private.Seed()))
	b.WriteByte('\n')
	b.WriteString("public ")
	b.WriteString(hex.EncodeToString(k.Pair.Public))
	b.WriteByte('\n')
	body := b.Bytes()
	h := sha256.Sum256(body)
	return append(body, []byte("check "+hex.EncodeToString(h[:])+"\n")...)
}

// DecodeKey parses and validates key file bytes. The public line must
// match the key derived from the seed, so splicing lines from two key
// files fails loudly.
func DecodeKey(data []byte) (Key, error) {
	lines, err := splitLines(data)
	if err != nil {
		return Key{}, err
	}
	if len(lines) != 5 {
		return Key{}, errors.New("roster: malformed key file")
	}
	if lines[0] != keyHeader {
		return Key{}, fmt.Errorf("roster: unknown key header %q", lines[0])
	}
	idStr, ok := strings.CutPrefix(lines[1], "server ")
	if !ok {
		return Key{}, errors.New("roster: key file missing server line")
	}
	id, err := strconv.ParseUint(idStr, 10, 16)
	if err != nil || types.ServerID(id) == types.NilServer {
		return Key{}, fmt.Errorf("roster: key file has invalid server id %q", idStr)
	}
	seedHex, ok := strings.CutPrefix(lines[2], "seed ")
	if !ok {
		return Key{}, errors.New("roster: key file missing seed line")
	}
	seedBytes, err := decodeHex(seedHex, ed25519.SeedSize)
	if err != nil {
		return Key{}, fmt.Errorf("roster: key file seed: %w", err)
	}
	pubHex, ok := strings.CutPrefix(lines[3], "public ")
	if !ok {
		return Key{}, errors.New("roster: key file missing public line")
	}
	pub, err := decodeHex(pubHex, ed25519.PublicKeySize)
	if err != nil {
		return Key{}, fmt.Errorf("roster: key file public key: %w", err)
	}
	checkHex, ok := strings.CutPrefix(lines[4], "check ")
	if !ok {
		return Key{}, errors.New("roster: key file missing check line")
	}
	if _, err := decodeHex(checkHex, sha256.Size); err != nil {
		return Key{}, fmt.Errorf("roster: key file check: %w", err)
	}
	var seed [32]byte
	copy(seed[:], seedBytes)
	k := Key{ID: types.ServerID(id), Pair: crypto.KeyPairFromSeed(seed)}
	if !k.Pair.Public.Equal(ed25519.PublicKey(pub)) {
		return Key{}, errors.New("roster: key file public key does not match its seed")
	}
	// Re-encoding recomputes the check line, so one comparison verifies
	// both integrity and canonical form.
	if !bytes.Equal(k.Encode(), data) {
		return Key{}, errors.New("roster: key file check mismatch or non-canonical encoding")
	}
	return k, nil
}

// LoadKey reads and validates a key file.
func LoadKey(path string) (Key, error) {
	data, err := readLimited(path)
	if err != nil {
		return Key{}, err
	}
	k, err := DecodeKey(data)
	if err != nil {
		return Key{}, fmt.Errorf("%w (file %s)", err, path)
	}
	return k, nil
}

// Save writes the key file with mode 0600 — the private seed is the only
// secret in the system.
func (k Key) Save(path string) error {
	if err := os.WriteFile(path, k.Encode(), 0o600); err != nil {
		return fmt.Errorf("roster: save key: %w", err)
	}
	return nil
}

// splitLines splits canonical newline-terminated text into lines,
// rejecting a missing final newline.
func splitLines(data []byte) ([]string, error) {
	if len(data) == 0 || data[len(data)-1] != '\n' {
		return nil, errors.New("roster: truncated file (missing final newline)")
	}
	return strings.Split(string(data[:len(data)-1]), "\n"), nil
}

// decodeHex decodes lowercase hex of an exact byte length.
func decodeHex(s string, n int) ([]byte, error) {
	if len(s) != 2*n {
		return nil, fmt.Errorf("want %d hex digits, got %d", 2*n, len(s))
	}
	if strings.ToLower(s) != s {
		return nil, errors.New("hex must be lowercase")
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// readLimited reads a file, bounding the size.
func readLimited(path string) ([]byte, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("roster: %w", err)
	}
	if fi.Size() > MaxFileSize {
		return nil, fmt.Errorf("roster: %s is %d bytes — not a roster or key file", path, fi.Size())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("roster: %w", err)
	}
	return data, nil
}
