package state

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"blockdag/internal/crypto"
)

// --- Tree semantics ---------------------------------------------------

func TestEmptyTreeRootIsZero(t *testing.T) {
	if NewTree().Root() != zeroHash {
		t.Fatal("empty tree must commit to the zero hash")
	}
}

// TestRootIsContentDeterministic is the canonicality pin: the root is a
// function of the final key/value set, never of insertion order.
func TestRootIsContentDeterministic(t *testing.T) {
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%03d", i))
	}
	build := func(perm []int) [32]byte {
		tr := NewTree()
		for _, i := range perm {
			tr.Put(keys[i], []byte(fmt.Sprintf("val-%03d", i)))
		}
		return tr.Root()
	}
	base := build(rand.New(rand.NewSource(1)).Perm(64))
	for seed := int64(2); seed < 8; seed++ {
		perm := rand.New(rand.NewSource(seed)).Perm(64)
		if got := build(perm); got != base {
			t.Fatalf("seed %d: root %x != %x — structure depends on history", seed, got, base)
		}
	}
}

func TestRootChangesOnEveryMutation(t *testing.T) {
	tr := NewTree()
	seen := map[[32]byte]bool{tr.Root(): true}
	for i := 0; i < 20; i++ {
		tr.Put([]byte{byte(i)}, []byte{byte(i)})
		r := tr.Root()
		if seen[r] {
			t.Fatalf("root repeated after insert %d", i)
		}
		seen[r] = true
	}
	tr.Put([]byte{3}, []byte("different"))
	if seen[tr.Root()] {
		t.Fatal("root unchanged after value overwrite")
	}
	if tr.Len() != 20 {
		t.Fatalf("Len after an overwrite = %d, want 20", tr.Len())
	}
}

func TestWalkIsKeyHashOrdered(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 100; i++ {
		tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte{byte(i)})
	}
	var hashes [][]byte
	tr.Walk(func(e Entry) {
		h := sha256.Sum256(e.Key)
		hashes = append(hashes, h[:])
	})
	if len(hashes) != 100 {
		t.Fatalf("walked %d entries, want 100", len(hashes))
	}
	if !sort.SliceIsSorted(hashes, func(i, j int) bool {
		return bytes.Compare(hashes[i], hashes[j]) < 0
	}) {
		t.Fatal("Walk order is not key-hash order")
	}
}

// --- Proofs -----------------------------------------------------------

func TestProofMembership(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 50; i++ {
		tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	root := tr.Root()
	for i := 0; i < 50; i++ {
		key, val := []byte(fmt.Sprintf("k%d", i)), []byte(fmt.Sprintf("v%d", i))
		p := tr.Prove(key)
		present, vh, err := p.Verify(root, key)
		if err != nil || !present {
			t.Fatalf("k%d: present=%v err=%v", i, present, err)
		}
		if vh != sha256.Sum256(val) {
			t.Fatalf("k%d: wrong value hash", i)
		}
		if err := p.VerifyValue(root, key, val); err != nil {
			t.Fatalf("k%d: VerifyValue: %v", i, err)
		}
		if err := p.VerifyValue(root, key, []byte("wrong")); err == nil {
			t.Fatalf("k%d: VerifyValue accepted a wrong value", i)
		}
	}
}

func TestProofNonMembership(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 50; i++ {
		tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	root := tr.Root()
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("absent-%d", i))
		p := tr.Prove(key)
		present, _, err := p.Verify(root, key)
		if err != nil {
			t.Fatalf("absent-%d: %v", i, err)
		}
		if present {
			t.Fatalf("absent-%d reported present", i)
		}
	}
	// Non-membership in the empty tree.
	p := NewTree().Prove([]byte("anything"))
	if present, _, err := p.Verify(zeroHash, []byte("anything")); err != nil || present {
		t.Fatalf("empty tree: present=%v err=%v", present, err)
	}
}

func TestProofRejectsWrongRoot(t *testing.T) {
	tr := NewTree()
	tr.Put([]byte("k"), []byte("v"))
	p := tr.Prove([]byte("k"))
	var other [32]byte
	other[0] = 0xFF
	if _, _, err := p.Verify(other, []byte("k")); !errors.Is(err, ErrBadProof) {
		t.Fatalf("wrong root: err = %v, want ErrBadProof", err)
	}
}

func TestProofRejectsTampering(t *testing.T) {
	tr := NewTree()
	for i := 0; i < 20; i++ {
		tr.Put([]byte(fmt.Sprintf("k%d", i)), []byte("v"))
	}
	root := tr.Root()
	p := tr.Prove([]byte("k7"))
	hashes := []*[32]byte{&p.KeyHash, &p.LeafKeyHash, &p.LeafValueHash}
	for i := range p.Branches {
		hashes = append(hashes, &p.Branches[i])
	}
	for i, h := range hashes {
		for bit := 0; bit < 256; bit += 7 {
			h[bit/8] ^= 1 << (bit % 8)
			present, vh, err := p.Verify(root, []byte("k7"))
			h[bit/8] ^= 1 << (bit % 8)
			if err != nil {
				continue // authenticates against nothing, fine
			}
			// A verifying mutation must not change the claim.
			if !present || vh != sha256.Sum256([]byte("v")) {
				t.Fatalf("hash %d bit %d: tampered proof verified with altered claim", i, bit)
			}
		}
	}
}

// --- Machine ----------------------------------------------------------

// TestMachineCommitAndAdvanceTo: Commit pins the root at the frontier and
// records nothing; AdvanceTo only raises the frontier.
func TestMachineCommitAndAdvanceTo(t *testing.T) {
	m := NewMachine()
	m.Tree().Put([]byte("k"), []byte("v"))
	m.AdvanceTo(3)
	m.AdvanceTo(2)
	if c := m.Commit(); c != (Commit{Slot: 3, Root: m.Tree().Root()}) || m.NextSlot() != 3 {
		t.Fatalf("Commit = %+v at frontier %d, want slot 3 and the tree's root", c, m.NextSlot())
	}
}

func TestMachineInstallRejectsMismatch(t *testing.T) {
	tr := NewTree()
	tr.Put([]byte("k"), []byte("v"))
	var wrong [32]byte
	wrong[5] = 1
	if err := NewMachine().Install(tr, Commit{Slot: 3, Root: wrong}); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("Install with wrong root: %v", err)
	}
	if err := NewMachine().Install(tr, Commit{Slot: 3, Root: tr.Root()}); err != nil {
		t.Fatal(err)
	}
}

// --- Snapshot chunks --------------------------------------------------

func buildTree(n int) *Tree {
	tr := NewTree()
	for i := 0; i < n; i++ {
		tr.Put([]byte(fmt.Sprintf("key-%04d", i)), bytes.Repeat([]byte{byte(i)}, 1+i%37))
	}
	return tr
}

func TestSnapshotRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 500} {
		tr := buildTree(n)
		chunks := Export(tr, 1024)
		b := NewBuilder(tr.Root())
		for _, c := range chunks {
			if err := b.Add(c); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
		}
		got, err := b.Finish()
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Root() != tr.Root() || got.Len() != tr.Len() {
			t.Fatalf("n=%d: rebuilt tree differs", n)
		}
	}
}

func TestSnapshotRejectsReorderedChunks(t *testing.T) {
	chunks := Export(buildTree(500), 1024)
	if len(chunks) < 3 {
		t.Fatal("test needs several chunks")
	}
	b := NewBuilder(buildTree(500).Root())
	if err := b.Add(chunks[1]); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("out-of-order chunk: %v", err)
	}
	// The rejection must not consume the slot: the right chunk still fits.
	if err := b.Add(chunks[0]); err != nil {
		t.Fatalf("retry after rejection: %v", err)
	}
}

func TestSnapshotRejectsDuplicateChunk(t *testing.T) {
	chunks := Export(buildTree(500), 1024)
	b := NewBuilder(buildTree(500).Root())
	if err := b.Add(chunks[0]); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(chunks[0]); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("duplicate chunk: %v", err)
	}
}

func TestSnapshotRejectsTamperedChunk(t *testing.T) {
	tr := buildTree(200)
	chunks := Export(tr, 1024)
	// Tamper with a value byte deep in a middle chunk: structurally
	// valid, so it must be caught by the final root check.
	mut := append([]byte(nil), chunks[len(chunks)/2]...)
	mut[len(mut)-1] ^= 0x01
	b := NewBuilder(tr.Root())
	for i, c := range chunks {
		if i == len(chunks)/2 {
			c = mut
		}
		if err := b.Add(c); err != nil {
			if i != len(chunks)/2 {
				t.Fatalf("chunk %d: %v", i, err)
			}
			return // caught structurally — also acceptable
		}
	}
	if _, err := b.Finish(); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("tampered chunk survived: %v", err)
	}
}

func TestSnapshotRejectsTruncatedStream(t *testing.T) {
	tr := buildTree(500)
	chunks := Export(tr, 1024)
	b := NewBuilder(tr.Root())
	for _, c := range chunks[:len(chunks)-1] {
		if err := b.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); !errors.Is(err, ErrRootMismatch) {
		t.Fatalf("truncated stream survived Finish: %v", err)
	}
}

func TestSnapshotResume(t *testing.T) {
	tr := buildTree(500)
	chunks := Export(tr, 1024)
	b := NewBuilder(tr.Root())
	// First "connection" dies after two chunks.
	for _, c := range chunks[:2] {
		if err := b.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	// Resume from NextChunk on a second connection.
	for _, c := range chunks[b.NextChunk():] {
		if err := b.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Finish(); err != nil {
		t.Fatal(err)
	}
}

// --- Signed commits ---------------------------------------------------

func TestSignedCommitRoundTrip(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	c := Commit{Slot: 42, Root: sha256.Sum256([]byte("root"))}
	sc := SignCommit(c, signers[1])
	if err := sc.Verify(roster); err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSignedCommit(sc.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Commit != c || dec.Server != 1 {
		t.Fatalf("decode changed the commit: %+v", dec)
	}
	if err := dec.Verify(roster); err != nil {
		t.Fatal(err)
	}
	// Tampered slot must fail verification.
	dec.Commit.Slot++
	if err := dec.Verify(roster); err == nil {
		t.Fatal("tampered commit verified")
	}
}

func TestCertifiedBy(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(4) // f = 1, need 2 distinct
	if err != nil {
		t.Fatal(err)
	}
	c := Commit{Slot: 7, Root: sha256.Sum256([]byte("r"))}
	s0, s1 := SignCommit(c, signers[0]), SignCommit(c, signers[1])
	if CertifiedBy(nil, roster) {
		t.Fatal("empty certificate accepted")
	}
	if CertifiedBy([]SignedCommit{s0}, roster) {
		t.Fatal("f signatures accepted")
	}
	if !CertifiedBy([]SignedCommit{s0, s1}, roster) {
		t.Fatal("f+1 distinct signatures rejected")
	}
	if CertifiedBy([]SignedCommit{s0, s0}, roster) {
		t.Fatal("duplicate signer counted twice")
	}
	other := SignCommit(Commit{Slot: 8, Root: c.Root}, signers[1])
	if CertifiedBy([]SignedCommit{s0, other}, roster) {
		t.Fatal("mixed (slot,root) certificate accepted")
	}
	forged := s1
	forged.Server = 2
	if CertifiedBy([]SignedCommit{s0, forged}, roster) {
		t.Fatal("forged signature accepted")
	}
}
