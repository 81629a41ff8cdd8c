package state

import (
	"errors"
	"fmt"

	"blockdag/internal/crypto"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// commitDomain separates state-commit signatures from every other
// signed artifact in the system (blocks, evidence): a signature over a
// commit can never be replayed as anything else.
const commitDomain = "blockdag/state-commit/v1"

// ErrBadCommit reports a signed commit that fails decoding or
// signature verification.
var ErrBadCommit = errors.New("state: bad commit")

// Commit pins a state root at a slot: "at frontier Slot (Machine.AdvanceTo),
// the state tree commits to Root". A machine restored from a commit
// resumes at exactly Commit.Slot.
type Commit struct {
	Slot uint64
	Root [32]byte
}

// SigningBytes renders the domain-tagged preimage a server signs to
// certify the commit.
func (c Commit) SigningBytes() []byte {
	w := wire.NewWriter(len(commitDomain) + 48)
	w.String(commitDomain)
	w.Uvarint(c.Slot)
	w.Bytes32(c.Root)
	return w.Bytes()
}

// SignedCommit is one server's certification of a commit. A joining
// node accepts a (slot, root) pair once it holds f+1 valid signatures
// from distinct servers on the identical pair — at least one is
// correct, and correct servers only sign roots they computed.
type SignedCommit struct {
	Commit Commit
	Server types.ServerID
	Sig    []byte
}

// SignCommit certifies a commit with the local signer.
func SignCommit(c Commit, signer *crypto.Signer) SignedCommit {
	return SignedCommit{Commit: c, Server: signer.ID(), Sig: signer.Sign(c.SigningBytes())}
}

// Verify checks the signature against the roster.
func (sc SignedCommit) Verify(roster *crypto.Roster) error {
	if !roster.Contains(sc.Server) {
		return fmt.Errorf("%w: unknown server %d", ErrBadCommit, sc.Server)
	}
	if !roster.Verify(sc.Server, sc.Commit.SigningBytes(), sc.Sig) {
		return fmt.Errorf("%w: bad signature from server %d", ErrBadCommit, sc.Server)
	}
	return nil
}

// Encode renders the signed commit canonically.
func (sc SignedCommit) Encode() []byte {
	w := wire.NewWriter(64 + len(sc.Sig))
	w.Uint16(uint16(sc.Server))
	w.Uvarint(sc.Commit.Slot)
	w.Bytes32(sc.Commit.Root)
	w.VarBytes(sc.Sig)
	return w.Bytes()
}

// DecodeSignedCommit inverts Encode. Signatures are NOT verified here;
// callers check Verify against their roster.
func DecodeSignedCommit(data []byte) (SignedCommit, error) {
	r := wire.NewReader(data)
	sc := SignedCommit{Server: types.ServerID(r.Uint16())}
	sc.Commit.Slot = r.Uvarint()
	sc.Commit.Root = r.Bytes32()
	sc.Sig = r.VarBytes()
	if err := r.Close(); err != nil {
		return SignedCommit{}, fmt.Errorf("%w: %v", ErrBadCommit, err)
	}
	return sc, nil
}

// CertifiedBy reports whether the signed commits form an f+1
// certificate for exactly the (slot, root) pair of the first entry:
// all entries agree, every signature verifies, signers are distinct,
// and at least f+1 of them signed. The boolean is false (never a
// panic) for an empty slice.
func CertifiedBy(scs []SignedCommit, roster *crypto.Roster) bool {
	if len(scs) == 0 {
		return false
	}
	want := scs[0].Commit
	signers := make(map[types.ServerID]struct{}, len(scs))
	for _, sc := range scs {
		if sc.Commit != want {
			return false
		}
		if sc.Verify(roster) != nil {
			return false
		}
		signers[sc.Server] = struct{}{}
	}
	return len(signers) >= roster.F()+1
}
