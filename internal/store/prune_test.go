package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blockdag/internal/dag"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

// testStateCkpt is an opaque state checkpoint fixture; the store never
// interprets the chunk bytes.
func testStateCkpt(slot uint64) *store.StateCheckpoint {
	return &store.StateCheckpoint{
		Slot:   slot,
		Root:   [32]byte{1, 2, 3, byte(slot)},
		Chunks: [][]byte{{0xAA, 0xBB}, {0xCC}},
	}
}

func TestPruneToRoundTrip(t *testing.T) {
	roster, blocks := chain(t, 10)
	dir := t.TempDir()

	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks)
	d := dag.New(roster)
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}

	if _, err := st.PruneTo(d, map[types.ServerID]uint64{0: 5}); err == nil {
		t.Fatal("PruneTo without a state checkpoint succeeded")
	}
	sc := testStateCkpt(42)
	st.SetStateCheckpoint(sc)
	stats, err := st.PruneTo(d, map[types.ServerID]uint64{0: 5})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != 5 {
		t.Fatalf("retained %d blocks, want 5", stats.Blocks)
	}
	if stats.BytesAfter >= stats.BytesBefore {
		t.Fatalf("prune did not shrink the store: %d -> %d", stats.BytesBefore, stats.BytesAfter)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, roster, store.Options{})
	defer re.Close()
	if got := len(re.Blocks()); got != 5 {
		t.Fatalf("recovered %d blocks, want 5", got)
	}
	for _, b := range re.Blocks() {
		if b.Seq < 5 {
			t.Fatalf("recovered pruned block seq %d", b.Seq)
		}
	}
	base := re.Base()
	if len(base) != 1 || base[0].Builder != 0 || base[0].Seq != 4 || base[0].Ref != blocks[4].Ref() {
		t.Fatalf("recovered base %+v, want frontier at seq 4", base)
	}
	if h := re.Horizon(); h[0] != 5 {
		t.Fatalf("recovered horizon %v, want 5", h)
	}
	got := re.StateCheckpoint()
	if got == nil || got.Slot != sc.Slot || got.Root != sc.Root || len(got.Chunks) != len(sc.Chunks) {
		t.Fatalf("state checkpoint did not round-trip: %+v", got)
	}
	for i := range sc.Chunks {
		if !bytes.Equal(got.Chunks[i], sc.Chunks[i]) {
			t.Fatalf("chunk %d did not round-trip", i)
		}
	}

	// The recovered store restores into a base-seeded DAG.
	rd := dag.New(roster)
	if err := rd.SeedBase(re.Base()); err != nil {
		t.Fatal(err)
	}
	for _, b := range re.Blocks() {
		if err := rd.Insert(b); err != nil {
			t.Fatalf("recovered block %v failed revalidation: %v", b.Ref(), err)
		}
	}
	if rd.BaseHorizon()[0] != 5 {
		t.Fatalf("restored DAG horizon %v, want 5", rd.BaseHorizon())
	}

	// A read-only open, what the offline tools read with, sees exactly the
	// retained blocks.
	ro := openStore(t, dir, roster, store.Options{ReadOnly: true})
	defer ro.Close()
	if got := len(ro.Blocks()); got != 5 {
		t.Fatalf("a read-only open returned %d blocks, want 5", got)
	}
}

// TestCheckpointHorizonSticky verifies an ordinary checkpoint cannot
// resurrect pruned history: after PruneTo, checkpointing a DAG that
// still holds the full history in memory keeps the store pruned.
func TestCheckpointHorizonSticky(t *testing.T) {
	roster, blocks := chain(t, 12)
	dir := t.TempDir()

	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks[:10])
	d := dag.New(roster)
	for _, b := range blocks[:10] {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	st.SetStateCheckpoint(testStateCkpt(7))
	if _, err := st.PruneTo(d, map[types.ServerID]uint64{0: 5}); err != nil {
		t.Fatal(err)
	}

	// More live traffic, then a plain checkpoint from the full-history DAG.
	for _, b := range blocks[10:] {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Checkpoint(d); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, roster, store.Options{})
	defer re.Close()
	if got := len(re.Blocks()); got != 7 {
		t.Fatalf("recovered %d blocks, want 7 (seq 5..11)", got)
	}
	for _, b := range re.Blocks() {
		if b.Seq < 5 {
			t.Fatalf("checkpoint resurrected pruned block seq %d", b.Seq)
		}
	}
	if h := re.Horizon(); h[0] != 5 {
		t.Fatalf("horizon %v after plain checkpoint, want sticky 5", h)
	}
}

// TestPruneCrashBeforePublish models a crash after PruneTo wrote its
// temp snapshot but before the rename: the old segments still rule, the
// full history recovers, and the orphan is swept.
func TestPruneCrashBeforePublish(t *testing.T) {
	roster, blocks := chain(t, 8)
	dir := t.TempDir()

	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The crashed prune's unpublished snapshot: contents are irrelevant,
	// recovery must remove it without reading it.
	tmp := filepath.Join(dir, "0000000000000002.snap.tmp")
	if err := os.WriteFile(tmp, []byte("torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, roster, store.Options{})
	defer re.Close()
	if got := len(re.Blocks()); got != len(blocks) {
		t.Fatalf("recovered %d blocks, want the full %d (old horizon rules)", got, len(blocks))
	}
	if re.Horizon() != nil {
		t.Fatalf("horizon %v after aborted prune, want none", re.Horizon())
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("orphaned prune temp file not swept")
	}
	if re.Report().StaleSegments == 0 {
		t.Fatal("stale artifact not reported")
	}
}

// TestPruneCrashBeforeCleanup models a crash after the snapshot rename
// but before the old segments were deleted: the new horizon rules, and
// recovery finishes the interrupted cleanup.
func TestPruneCrashBeforeCleanup(t *testing.T) {
	roster, blocks := chain(t, 8)
	dir := t.TempDir()

	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks)
	// Capture the pre-prune WAL segment so the crash can be staged.
	wals, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("want exactly one WAL segment, got %v (%v)", wals, err)
	}
	walBytes, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}

	d := dag.New(roster)
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	st.SetStateCheckpoint(testStateCkpt(3))
	if _, err := st.PruneTo(d, map[types.ServerID]uint64{0: 4}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the deleted pre-prune segment: disk now looks exactly
	// like a crash between the rename and the cleanup.
	if err := os.WriteFile(wals[0], walBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, roster, store.Options{})
	defer re.Close()
	if got := len(re.Blocks()); got != 4 {
		t.Fatalf("recovered %d blocks, want 4 (new horizon rules)", got)
	}
	if h := re.Horizon(); h[0] != 4 {
		t.Fatalf("horizon %v, want 4", h)
	}
	if re.Report().StaleSegments == 0 {
		t.Fatal("leftover pre-prune segment not reported stale")
	}
	if _, err := os.Stat(wals[0]); !os.IsNotExist(err) {
		t.Fatal("leftover pre-prune segment not removed")
	}
}

// TestInstallSnapshotLifecycle exercises the snapshot-apply install
// path on the open store a wiped node already serves from: it persists a
// verified snapshot, keeps journaling live blocks above the horizon into
// the same store — in a fresh WAL segment after the snapshot — and a
// reopen recovers both. A store with history of its own refuses.
func TestInstallSnapshotLifecycle(t *testing.T) {
	roster, blocks := chain(t, 9)
	dir := t.TempDir()

	base := []dag.Base{{Builder: 0, Seq: 4, Ref: blocks[4].Ref()}}
	horizon := map[types.ServerID]uint64{0: 5}
	sc := testStateCkpt(99)
	st := openStore(t, dir, roster, store.Options{})
	if err := st.InstallSnapshot(horizon, base, nil); err == nil {
		t.Fatal("InstallSnapshot without a state checkpoint succeeded")
	}
	if err := st.InstallSnapshot(horizon, base, sc); err != nil {
		t.Fatal(err)
	}
	if err := st.InstallSnapshot(horizon, base, sc); err == nil {
		t.Fatal("InstallSnapshot into a store that holds a base succeeded")
	}
	if h := st.Horizon(); h[0] != 5 {
		t.Fatalf("installed horizon %v, want 5", h)
	}
	if got := st.StateCheckpoint(); got == nil || got.Slot != 99 {
		t.Fatalf("installed state checkpoint %+v", got)
	}

	// Delta follow: live blocks above the horizon journal into the store
	// that took the install, and recover.
	appendAll(t, st, blocks[5:])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	wals, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	snaps, _ := filepath.Glob(filepath.Join(dir, "*.snap"))
	if len(wals) != 1 || len(snaps) != 1 || filepath.Base(wals[0]) <= filepath.Base(snaps[0]) {
		t.Fatalf("after install + appends: snapshots %v, WAL %v, want one of each, the WAL newer", snaps, wals)
	}

	// What dagstore verify demands: a read-only open that found nothing to
	// repair, and blocks that validate on top of the installed base.
	re := openStore(t, dir, roster, store.Options{ReadOnly: true})
	defer re.Close()
	rep := re.Report()
	if rep.Blocks != 4 || rep.TornBytes != 0 || rep.StaleSegments != 0 || rep.Duplicates != 0 || !rep.HasSnapshot {
		t.Fatalf("reopened installed store: %+v", rep)
	}
	if h := re.Horizon(); h[0] != 5 || re.StateCheckpoint() == nil || re.StateCheckpoint().Slot != 99 {
		t.Fatalf("reopened installed store: horizon %v, checkpoint %+v", h, re.StateCheckpoint())
	}
	d := dag.New(roster)
	if err := d.SeedBase(re.Base()); err != nil {
		t.Fatal(err)
	}
	for _, b := range re.Blocks() {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}

	// A store that holds a block is nobody's empty store.
	held := openStore(t, t.TempDir(), roster, store.Options{})
	defer held.Close()
	appendAll(t, held, blocks[:1])
	if err := held.InstallSnapshot(horizon, base, sc); err == nil {
		t.Fatal("InstallSnapshot into a store that holds a block succeeded")
	}
}

// TestInstallSnapshotCrashMidApply models a crash during snapshot apply:
// only the temp file exists. Reopening finds no store state at all (the
// old horizon — here, nothing) rather than a torn half-install, and a
// retried install succeeds.
func TestInstallSnapshotCrashMidApply(t *testing.T) {
	roster, blocks := chain(t, 6)
	dir := t.TempDir()

	tmp := filepath.Join(dir, "0000000000000001.snap.tmp")
	if err := os.WriteFile(tmp, []byte("half-written snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir, roster, store.Options{})
	if got := len(st.Blocks()); got != 0 {
		t.Fatalf("torn install recovered %d blocks", got)
	}
	if st.Horizon() != nil || st.StateCheckpoint() != nil {
		t.Fatal("torn install leaked horizon or state")
	}

	// Retry the install on the store that swept the orphan.
	base := []dag.Base{{Builder: 0, Seq: 2, Ref: blocks[2].Ref()}}
	if err := st.InstallSnapshot(map[types.ServerID]uint64{0: 3}, base, testStateCkpt(5)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir, roster, store.Options{})
	defer re.Close()
	if h := re.Horizon(); h[0] != 3 {
		t.Fatalf("retried install horizon %v, want 3", h)
	}
}

// TestCorruptPrunedSnapshotRejected flips one byte of a v2 snapshot and
// verifies recovery refuses the store instead of serving damaged state.
func TestCorruptPrunedSnapshotRejected(t *testing.T) {
	roster, blocks := chain(t, 8)
	dir := t.TempDir()

	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks)
	d := dag.New(roster)
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	st.SetStateCheckpoint(testStateCkpt(1))
	if _, err := st.PruneTo(d, map[types.ServerID]uint64{0: 4}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, err := filepath.Glob(filepath.Join(dir, "*.snap"))
	if err != nil || len(snaps) != 1 {
		t.Fatalf("want one snapshot, got %v (%v)", snaps, err)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir, store.Options{Roster: roster}); err == nil {
		t.Fatal("corrupt pruned snapshot recovered")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
}
