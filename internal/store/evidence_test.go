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

// TestEvidenceCheckpointImmune: the proofs survive a cut that deletes WAL
// segments — the cut carries them into the head it writes.
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
		t.Fatal("a cut ate the proofs")
	}
}

// TestEvidenceCrashBeforeRename: an evidence write that crashed between its
// temp head and the rename leaves the previous head, whose proofs Open
// recovers, and the temp file, which Open sweeps and counts.
func TestEvidenceCrashBeforeRename(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	p1, p2 := forkProof(t, roster, signers, 1, "x"), forkProof(t, roster, signers, 2, "y")
	dir, next := t.TempDir(), t.TempDir()
	appendEvidence(t, dir, roster, p1)
	// The head the crashed write was about to rename into place.
	appendEvidence(t, next, roster, p1, p2)
	data, err := os.ReadFile(filepath.Join(next, "head"))
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "head.tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Evidence(); len(got) != 1 || !bytes.Equal(got[0].Encode(), p1.Encode()) {
		t.Fatalf("recovered %d proofs, want the previous head's one", len(got))
	}
	if got := re.Report().StaleSegments; got != 1 {
		t.Fatalf("StaleSegments = %d, want the temp head counted", got)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("the temp head survived a read-write open")
	}
}

// TestEvidenceSurvivesInstall: a snapshot installed into an empty store
// that already convicted someone keeps the conviction beside the installed
// horizon, base and checkpoint.
func TestEvidenceSurvivesInstall(t *testing.T) {
	roster, blocks := chain(t, 2)
	_, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	p := forkProof(t, roster, signers, 0, "x")
	dir := t.TempDir()
	appendEvidence(t, dir, roster, p)
	s, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallSnapshot(&store.Head{
		Horizon: map[types.ServerID]uint64{0: 1},
		Base:    []dag.Base{{Builder: 0, Seq: 0, Ref: blocks[0].Ref()}},
		State:   &store.StateCheckpoint{Slot: 1},
	}); err != nil {
		t.Fatal(err)
	}
	if !holds(s, 0) {
		t.Fatal("an install dropped the proof from the published head")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if !re.Report().HasSnapshot || re.Head().State.Slot != 1 || len(re.Head().Base) != 1 {
		t.Fatalf("installed head not recovered: %+v", re.Head())
	}
	if len(re.Evidence()) != 1 || !holds(re, 0) {
		t.Fatal("an install dropped the proof from the head on disk")
	}
}

// TestEvidenceKeepsTheDurableCheckpoint: an evidence write rewrites the
// head as the last cut made it durable. A newer checkpoint
// SetStateCheckpoint holds only in memory stays there: published, not
// written.
func TestEvidenceKeepsTheDurableCheckpoint(t *testing.T) {
	roster, blocks := chain(t, 4)
	_, signers, err := crypto.LocalRoster(1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s, blocks)
	d := dag.New(roster)
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	s.SetStateCheckpoint(&store.StateCheckpoint{Slot: 1})
	if err := s.PruneTo(d, map[types.ServerID]uint64{0: 2}); err != nil {
		t.Fatal(err)
	}
	s.SetStateCheckpoint(&store.StateCheckpoint{Slot: 2})
	if err := s.AppendEvidence(forkProof(t, roster, signers, 0, "x")); err != nil {
		t.Fatal(err)
	}
	if got := s.Head().State.Slot; got != 2 || !holds(s, 0) {
		t.Fatalf("published head: checkpoint slot %d, proof %v; want 2 and the proof", got, holds(s, 0))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Head().State.Slot; got != 1 || !holds(re, 0) {
		t.Fatalf("head on disk: checkpoint slot %d, proof %v; want the cut's 1 and the proof", got, holds(re, 0))
	}
	if re.Head().Horizon[0] != 2 {
		t.Fatalf("head on disk: horizon %v, want the cut's", re.Head().Horizon)
	}
}

// TestEvidenceOnlyHeadIsNoSnapshot: a head holding proofs and nothing else
// stands in for no history: Open reports no snapshot, and the head it
// publishes has no horizon, base or state.
func TestEvidenceOnlyHeadIsNoSnapshot(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	appendEvidence(t, dir, roster, forkProof(t, roster, signers, 1, "x"))
	re, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Report().HasSnapshot {
		t.Fatal("a head holding only proofs reported as a snapshot")
	}
	if h := re.Head(); len(h.Horizon) != 0 || len(h.Base) != 0 || h.State != nil || !holds(re, 1) {
		t.Fatalf("head = %+v, want the proof alone", h)
	}
}

// TestDiskSizeCountsEvidence: a conviction is on disk in the head, and
// DiskSize grows by exactly what the head grew.
func TestDiskSizeCountsEvidence(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	headSize := func() int64 {
		info, err := os.Stat(filepath.Join(dir, "head"))
		if os.IsNotExist(err) {
			return 0
		}
		if err != nil {
			t.Fatal(err)
		}
		return info.Size()
	}
	for i, tag := range []string{"x", "y"} {
		before, err := s.DiskSize()
		if err != nil {
			t.Fatal(err)
		}
		head := headSize()
		if err := s.AppendEvidence(forkProof(t, roster, signers, i+1, tag)); err != nil {
			t.Fatal(err)
		}
		after, err := s.DiskSize()
		if err != nil {
			t.Fatal(err)
		}
		if grown := headSize() - head; grown <= 0 || after-before != grown {
			t.Fatalf("proof %d: DiskSize grew by %d, the head by %d", i+1, after-before, grown)
		}
	}
}

// appendEvidence opens the store in dir, appends the proofs and closes it.
func appendEvidence(t *testing.T, dir string, roster *crypto.Roster, proofs ...*evidence.Proof) {
	t.Helper()
	s, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range proofs {
		if err := s.AppendEvidence(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// holds reports whether s journals a proof against id.
func holds(s *store.Store, id types.ServerID) bool {
	return slices.ContainsFunc(s.Evidence(), func(p *evidence.Proof) bool { return p.Equivocator() == id })
}
