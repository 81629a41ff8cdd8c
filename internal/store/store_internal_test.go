package store

import (
	"errors"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
)

// sealedPair returns a two-server roster and one sealed genesis block per
// server, honestly signed.
func sealedPair(t *testing.T) (*crypto.Roster, *block.Block, *block.Block) {
	t.Helper()
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	b0 := block.New(0, 0, nil, nil)
	if err := b0.Seal(signers[0]); err != nil {
		t.Fatal(err)
	}
	b1 := block.New(1, 0, nil, nil)
	if err := b1.Seal(signers[1]); err != nil {
		t.Fatal(err)
	}
	return roster, b0, b1
}

// TestAppendAfterTornWriteRepair reproduces the aftermath of a failed
// record write — partial bytes at EOF, truncated back by Append's repair —
// and checks that the next append lands at the truncated EOF instead of
// the stale file offset past it. Without O_APPEND on the live segment the
// second write would leave a zero-filled gap and recovery would silently
// drop everything after the first block.
func TestAppendAfterTornWriteRepair(t *testing.T) {
	roster, b0, b1 := sealedPair(t)
	dir := t.TempDir()
	st, err := Open(dir, Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(b0); err != nil {
		t.Fatal(err)
	}
	// The partial record a torn write leaves behind…
	if _, err := st.cur.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	// …and the repair Append performs before returning the write error.
	if err := st.cur.Truncate(st.curSize); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(b1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if got := len(re.Blocks()); got != 2 {
		t.Fatalf("recovered %d blocks after repair, want 2", got)
	}
	if tb := re.Report().TornBytes; tb != 0 {
		t.Fatalf("recovery found %d torn bytes in a repaired log", tb)
	}
}

// TestFailedWriteEndsTheSegment: a write that fails partway leaves torn bytes
// (written by hand here) and the repair flushPending runs; it cuts them off
// and closes the segment, and the next append opens a fresh one, whose window
// names nothing in the old: a block citing one there names it by ref, and a
// reopen reads both segments whole.
func TestFailedWriteEndsTheSegment(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(2)
	if err != nil {
		t.Fatal(err)
	}
	b0 := block.New(0, 0, nil, nil)
	if err := b0.Seal(signers[0]); err != nil {
		t.Fatal(err)
	}
	b1 := block.New(1, 0, []block.Ref{b0.Ref()}, nil)
	if err := b1.Seal(signers[1]); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Open(dir, Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(b0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.cur.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	st.endFailedSegment(errors.New("no space left on device"))
	if st.cur != nil || st.failed != nil {
		t.Fatalf("after the repair: live segment %v, latched %v; want none and none", st.cur, st.failed)
	}
	if err := st.Append(b1); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if rep := re.Report(); len(re.Blocks()) != 2 || rep.Segments != 2 || rep.TornBytes != 0 {
		t.Fatalf("reopened: %d blocks in %d segments, %d torn bytes; want 2 in 2, none", len(re.Blocks()), rep.Segments, rep.TornBytes)
	}
}

// TestFailedWriteRollsTheFrontierBack: Len counts what is journaled. A write
// that fails takes its records back out of the count, and — the segment's
// tail being beyond repair here: the handle is dead — latches the store, so
// the frontier cannot move again and the core server above reports the
// store, not a hole in it.
func TestFailedWriteRollsTheFrontierBack(t *testing.T) {
	roster, b0, b1 := sealedPair(t)
	st, err := Open(t.TempDir(), Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Abandon()
	sink := st.PersistSink(0)
	if err := sink(b0); err != nil {
		t.Fatal(err)
	}
	_ = st.cur.Close() // the disk goes away under the store
	if err := sink(b1); err == nil {
		t.Fatal("a write to a closed segment succeeded")
	}
	if st.Len() != 1 || st.failed == nil {
		t.Fatalf("after the failed write: Len %d, latched %v; want the one journaled block and a latched store", st.Len(), st.failed)
	}
	if err := sink(b1); err == nil || st.Len() != 1 {
		t.Fatalf("the latched store took the block again (err %v, Len %d)", err, st.Len())
	}
}

// TestPersistSinkSyncsOwnBlocks: the sink must force own blocks durable
// before returning — the externalization barrier that prevents post-crash
// self-equivocation — while received blocks stay on the configured policy
// (here SyncNever, so they leave the WAL dirty).
func TestPersistSinkSyncsOwnBlocks(t *testing.T) {
	roster, own, other := sealedPair(t)
	st, err := Open(t.TempDir(), Options{Roster: roster, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	sink := st.PersistSink(0)

	if err := sink(other); err != nil {
		t.Fatal(err)
	}
	if !st.dirty {
		t.Fatal("received block was synced under SyncNever")
	}
	if err := sink(own); err != nil {
		t.Fatal(err)
	}
	if st.dirty {
		t.Fatal("own block left the WAL unsynced: broadcast would outrun durability")
	}
}

// TestAbandonReleasesHandle: Abandon closes the live segment without
// sealing it, refuses further use, and leaves the directory recoverable.
func TestAbandonReleasesHandle(t *testing.T) {
	roster, b0, _ := sealedPair(t)
	dir := t.TempDir()
	st, err := Open(dir, Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(b0); err != nil {
		t.Fatal(err)
	}
	st.Abandon()
	if st.cur != nil {
		t.Fatal("Abandon left the segment handle open")
	}
	if err := st.Append(b0); err == nil {
		t.Fatal("abandoned store accepted an append")
	}
	st.Abandon() // idempotent

	re, err := Open(dir, Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = re.Close() }()
	if got := len(re.Blocks()); got != 1 {
		t.Fatalf("recovered %d blocks after abandon, want 1", got)
	}
}
