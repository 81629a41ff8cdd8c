package store_test

import (
	"bytes"
	"crypto/ed25519"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/evidence"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

// forkProof builds a verified equivocation proof by the given builder,
// distinguished by tag, for an n-server roster.
func forkProof(t testing.TB, roster *crypto.Roster, signers []*crypto.Signer, builder int, tag string) *evidence.Proof {
	t.Helper()
	seal := func(data string) *block.Block {
		b := block.New(types.ServerID(builder), 0, nil, []block.Request{
			{Label: types.Label("ℓ" + tag), Data: []byte(data)},
		})
		if err := b.Seal(signers[builder]); err != nil {
			t.Fatal(err)
		}
		return b
	}
	p := evidence.New(seal("a"), seal("b"))
	if err := p.Verify(roster); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEvidencePersistence(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	p1 := forkProof(t, roster, signers, 1, "x")
	p2 := forkProof(t, roster, signers, 2, "y")
	if err := s.AppendEvidence(p1); err != nil {
		t.Fatal(err)
	}
	// Second proof against the same equivocator: no-op, not an error.
	if err := s.AppendEvidence(forkProof(t, roster, signers, 1, "z")); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvidence(p2); err != nil {
		t.Fatal(err)
	}
	if !holds(s, 1) || !holds(s, 2) || holds(s, 0) {
		t.Fatal("HasEvidence wrong before reopen")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Evidence()
	if len(got) != 2 {
		t.Fatalf("recovered %d proofs, want 2", len(got))
	}
	if !bytes.Equal(got[0].Encode(), p1.Encode()) || !bytes.Equal(got[1].Encode(), p2.Encode()) {
		t.Fatal("recovered proofs differ from appended ones")
	}
	if !holds(re, 1) || !holds(re, 2) {
		t.Fatal("HasEvidence wrong after reopen")
	}
	// The dedup survives reopen too.
	if err := re.AppendEvidence(forkProof(t, roster, signers, 1, "w")); err != nil {
		t.Fatal(err)
	}
	if len(re.Evidence()) != 2 {
		t.Fatal("reopened store re-admitted a convicted equivocator")
	}
}

// TestEvidenceTornTail: a partial record at the end of the sidecar (the
// crash-mid-write case) is truncated away on the next open; the whole
// records before it survive.
func TestEvidenceTornTail(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvidence(forkProof(t, roster, signers, 1, "x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "evidence.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := len(data)
	// Append half a record's worth of garbage — a torn tail.
	if err := os.WriteFile(path, append(data, 0x00, 0x00, 0x01), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Evidence()) != 1 || !holds(re, 1) {
		t.Fatal("whole record did not survive the torn tail")
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if len(data) != whole {
		t.Fatalf("torn tail not truncated: %d bytes, want %d", len(data), whole)
	}
}

// TestEvidenceTornHeader: a file that died before the magic landed is
// removed and recovery proceeds with no evidence.
func TestEvidenceTornHeader(t *testing.T) {
	roster, _, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "evidence.log"), []byte("BDE"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if len(s.Evidence()) != 0 {
		t.Fatal("torn header produced evidence")
	}
	if _, err := os.Stat(filepath.Join(dir, "evidence.log")); !os.IsNotExist(err) {
		t.Fatal("torn header file not removed")
	}
}

// TestEvidenceForeignRoster: a proof written under a different roster no
// longer verifies on recovery and must be dropped, not resurrected.
func TestEvidenceForeignRoster(t *testing.T) {
	rosterA, signersA, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{Roster: rosterA})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvidence(forkProof(t, rosterA, signersA, 1, "x")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Fresh random keys (LocalRoster is deterministic, so re-deriving it
	// would yield the same roster): old signatures must not verify.
	keys := make([]ed25519.PublicKey, 3)
	for i := range keys {
		kp, err := crypto.GenerateKeyPair(nil)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = kp.Public
	}
	rosterB, err := crypto.NewRoster(keys)
	if err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(dir, store.Options{Roster: rosterB})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(re.Evidence()) != 0 || holds(re, 1) {
		t.Fatal("foreign-roster proof resurrected a ban")
	}
}

// TestEvidenceCheckpointImmune: the sidecar must survive a cut that
// deletes WAL segments — its filename is foreign to the segment namespace.
func TestEvidenceCheckpointImmune(t *testing.T) {
	roster, blocks := chain(t, 6)
	// chain() derives LocalRoster(1) deterministically, so re-deriving
	// yields the signer that matches its roster.
	_, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	store.SetSegmentSize(t, 128)
	s, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks {
		if err := s.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.AppendEvidence(forkProof(t, roster, signers, 0, "x")); err != nil {
		t.Fatal(err)
	}
	d := dag.New(roster)
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	s.SetStateCheckpoint(&store.StateCheckpoint{Slot: 1})
	if err := s.PruneTo(d, map[types.ServerID]uint64{0: 5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(re.Evidence()) != 1 || !holds(re, 0) {
		t.Fatal("a cut ate the evidence sidecar")
	}
}

// holds reports whether s journals a proof against id.
func holds(s *store.Store, id types.ServerID) bool {
	return slices.ContainsFunc(s.Evidence(), func(p *evidence.Proof) bool { return p.Equivocator() == id })
}
