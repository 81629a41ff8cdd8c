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

	if err := st.PruneTo(d, map[types.ServerID]uint64{0: 5}); err == nil {
		t.Fatal("PruneTo without a state checkpoint succeeded")
	}
	sc := testStateCkpt(42)
	st.SetStateCheckpoint(sc)
	if err := st.PruneTo(d, map[types.ServerID]uint64{0: 5}); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 5 {
		t.Fatalf("retained %d blocks, want 5", st.Len())
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
	base := re.Head().Base
	if len(base) != 1 || base[0].Builder != 0 || base[0].Seq != 4 || base[0].Ref != blocks[4].Ref() {
		t.Fatalf("recovered base %+v, want frontier at seq 4", base)
	}
	if h := re.Head().Horizon; h[0] != 5 {
		t.Fatalf("recovered horizon %v, want 5", h)
	}
	got := re.Head().State
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
	if err := rd.SeedBase(re.Head().Base); err != nil {
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

// TestCheckpointHorizonSticky verifies a cut cannot resurrect pruned
// history: after PruneTo, a second cut asking for a lower horizon — from a
// DAG that still holds the full history in memory — keeps the store
// pruned at the first.
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
	if err := st.PruneTo(d, map[types.ServerID]uint64{0: 5}); err != nil {
		t.Fatal(err)
	}

	// More live traffic, then a lower cut from the full-history DAG.
	for _, b := range blocks[10:] {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.PruneTo(d, map[types.ServerID]uint64{0: 3}); err != nil {
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
			t.Fatalf("a lower cut resurrected pruned block seq %d", b.Seq)
		}
	}
	if h := re.Head().Horizon; h[0] != 5 {
		t.Fatalf("horizon %v after a lower cut, want sticky 5", h)
	}
}

// TestPruneCrashBeforePublish models a crash after PruneTo wrote its
// temp head but before the rename: the old horizon — none — still rules,
// the full history recovers, and the orphan is swept.
func TestPruneCrashBeforePublish(t *testing.T) {
	roster, blocks := chain(t, 8)
	dir := t.TempDir()

	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// The crashed prune's unpublished head: contents are irrelevant,
	// recovery must remove it without reading it.
	tmp := filepath.Join(dir, "head.tmp")
	if err := os.WriteFile(tmp, []byte("torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, roster, store.Options{})
	defer re.Close()
	if got := len(re.Blocks()); got != len(blocks) {
		t.Fatalf("recovered %d blocks, want the full %d (old horizon rules)", got, len(blocks))
	}
	if h := re.Head().Horizon; h != nil {
		t.Fatalf("horizon %v after aborted prune, want none", h)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("orphaned prune temp file not swept")
	}
	if re.Report().StaleSegments == 0 {
		t.Fatal("stale artifact not reported")
	}
}

// TestPruneCrashBeforeCleanup models a crash after the head was published
// but before the segments below the horizon were deleted: the new horizon
// rules, and their records below it are no rows. A read-only open reports
// the leftovers and leaves them in place; a read-write open finishes the
// interrupted cut, deleting and counting them.
func TestPruneCrashBeforeCleanup(t *testing.T) {
	roster, blocks := chain(t, 8)
	dir := t.TempDir()

	store.SetSegmentSize(t, 256)
	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks)
	// Capture the pre-prune segments so the crash can be staged.
	before := readDirBytes(t, dir)

	d := dag.New(roster)
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	st.SetStateCheckpoint(testStateCkpt(3))
	if err := st.PruneTo(d, map[types.ServerID]uint64{0: 4}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Resurrect the deleted segments: disk now looks exactly like a crash
	// between publishing the head and the cleanup.
	after := readDirBytes(t, dir)
	var leftovers []string
	for name, data := range before {
		if _, kept := after[name]; !kept {
			leftovers = append(leftovers, name)
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(leftovers) == 0 {
		t.Fatal("the cut deleted no segment: nothing to leave behind")
	}
	opened := func(opts store.Options) *store.Store {
		t.Helper()
		re := openStore(t, dir, roster, opts)
		if got := len(re.Blocks()); got != 4 {
			t.Fatalf("recovered %d blocks, want 4 (new horizon rules)", got)
		}
		if h := re.Head().Horizon; h[0] != 4 {
			t.Fatalf("horizon %v, want 4", h)
		}
		if got := re.Report().StaleSegments; got != len(leftovers) {
			t.Fatalf("StaleSegments = %d, want the %d segments the cut left", got, len(leftovers))
		}
		return re
	}

	ro := opened(store.Options{ReadOnly: true})
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range leftovers {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("a read-only open touched leftover %s: %v", name, err)
		}
	}
	re := opened(store.Options{})
	defer re.Close()
	for _, name := range leftovers {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("leftover segment %s not removed", name)
		}
	}
}

// TestCheckpointCrashCleanup: the oldest segment a cut to a state
// checkpoint failed to delete before crashing is swept on the next Open,
// alone, and the rows at or above the horizon recover in full.
func TestCheckpointCrashCleanup(t *testing.T) {
	roster, blocks := chain(t, 8)
	dir := t.TempDir()
	store.SetSegmentSize(t, 256)
	st := openStore(t, dir, roster, store.Options{})
	appendAll(t, st, blocks)
	before := readDirBytes(t, dir)

	d := dag.New(roster)
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	st.SetStateCheckpoint(testStateCkpt(3))
	if err := st.PruneTo(d, map[types.ServerID]uint64{0: 4}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-create the oldest pre-cut segment, as if the crash hit between
	// publishing the head and deleting it.
	after := readDirBytes(t, dir)
	stale := ""
	for name := range before {
		if _, kept := after[name]; !kept && (stale == "" || name < stale) {
			stale = name
		}
	}
	if stale == "" {
		t.Fatal("the cut deleted no segment: nothing to leave behind")
	}
	path := filepath.Join(dir, stale)
	if err := os.WriteFile(path, before[stale], 0o644); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir, roster, store.Options{})
	defer func() { _ = st2.Close() }()
	if !sameRefs(st2.Blocks(), blocks[4:]) {
		t.Fatalf("recovered %d blocks, want %d", len(st2.Blocks()), len(blocks[4:]))
	}
	if got := st2.Report().StaleSegments; got != 1 {
		t.Fatalf("StaleSegments = %d, want 1", got)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("stale segment not removed")
	}
}

// TestInstallSnapshotLifecycle exercises the snapshot-apply install
// path on the open store a wiped node already serves from: it persists a
// verified snapshot as the store's head, keeps journaling live blocks
// above the horizon into the same store's WAL, and a reopen recovers
// both. A store with history of its own refuses.
func TestInstallSnapshotLifecycle(t *testing.T) {
	roster, blocks := chain(t, 9)
	dir := t.TempDir()

	base := []dag.Base{{Builder: 0, Seq: 4, Ref: blocks[4].Ref()}}
	head := &store.Head{Horizon: map[types.ServerID]uint64{0: 5}, Base: base, State: testStateCkpt(99)}
	st := openStore(t, dir, roster, store.Options{})
	if err := st.InstallSnapshot(&store.Head{Horizon: head.Horizon, Base: base}); err == nil {
		t.Fatal("InstallSnapshot without a state checkpoint succeeded")
	}
	if err := st.InstallSnapshot(head); err != nil {
		t.Fatal(err)
	}
	if err := st.InstallSnapshot(head); err == nil {
		t.Fatal("InstallSnapshot into a store that holds a base succeeded")
	}
	if got := st.Head(); got.Horizon[0] != 5 || got.State == nil || got.State.Slot != 99 {
		t.Fatalf("installed head %+v, want horizon 5 and the slot-99 checkpoint", got)
	}

	// Delta follow: live blocks above the horizon journal into the store
	// that took the install, and recover.
	appendAll(t, st, blocks[5:])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	files := readDirBytes(t, dir)
	wals, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	if _, ok := files["head"]; len(files) != 2 || len(wals) != 1 || !ok {
		t.Fatalf("after install + appends: %d files, WAL %v, want the head and one WAL segment", len(files), wals)
	}

	// What dagstore verify demands: a read-only open that found nothing to
	// repair, and blocks that validate on top of the installed base.
	re := openStore(t, dir, roster, store.Options{ReadOnly: true})
	defer re.Close()
	rep := re.Report()
	if rep.Blocks != 4 || rep.TornBytes != 0 || rep.StaleSegments != 0 || rep.Duplicates != 0 || !rep.HasSnapshot {
		t.Fatalf("reopened installed store: %+v", rep)
	}
	if h := re.Head(); h.Horizon[0] != 5 || h.State == nil || h.State.Slot != 99 {
		t.Fatalf("reopened installed store: horizon %v, checkpoint %+v", h.Horizon, h.State)
	}
	d := dag.New(roster)
	if err := d.SeedBase(re.Head().Base); err != nil {
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
	if err := held.InstallSnapshot(head); err == nil {
		t.Fatal("InstallSnapshot into a store that holds a block succeeded")
	}
}

// TestInstallSnapshotCrashMidApply models a crash during snapshot apply:
// only the head's temp file exists. Reopening finds no store state at all (the
// old horizon — here, nothing) rather than a torn half-install, and a
// retried install succeeds.
func TestInstallSnapshotCrashMidApply(t *testing.T) {
	roster, blocks := chain(t, 6)
	dir := t.TempDir()

	tmp := filepath.Join(dir, "head.tmp")
	if err := os.WriteFile(tmp, []byte("half-written head"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir, roster, store.Options{})
	if got := len(st.Blocks()); got != 0 {
		t.Fatalf("torn install recovered %d blocks", got)
	}
	if h := st.Head(); h.Horizon != nil || h.State != nil {
		t.Fatal("torn install leaked horizon or state")
	}

	// Retry the install on the store that swept the orphan.
	base := []dag.Base{{Builder: 0, Seq: 2, Ref: blocks[2].Ref()}}
	if err := st.InstallSnapshot(&store.Head{Horizon: map[types.ServerID]uint64{0: 3}, Base: base, State: testStateCkpt(5)}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir, roster, store.Options{})
	defer re.Close()
	if h := re.Head().Horizon; h[0] != 3 {
		t.Fatalf("retried install horizon %v, want 3", h)
	}
}

// TestCorruptPrunedSnapshotRejected flips one byte of a pruned store's
// head and verifies recovery refuses the store instead of serving damaged
// state.
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
	if err := st.PruneTo(d, map[types.ServerID]uint64{0: 4}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "head")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir, store.Options{Roster: roster}); err == nil {
		t.Fatal("corrupt pruned snapshot recovered")
	} else if !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestPruneWritesNoBlock: a cut writes its head and nothing else. Two
// stores of one chain, cut at the same horizon under the same state
// checkpoint, retain 64 rows and 16 384: what the cut adds to each
// directory is the head alone, the same bytes in both, and every WAL
// segment that survives the cut is byte for byte what it was before.
func TestPruneWritesNoBlock(t *testing.T) {
	if raceEnabled {
		t.Skip("counts bytes; under the race detector its 16 484 signatures only take long")
	}
	const below = 100
	roster, blocks := chain(t, below+16384)
	horizon := map[types.ServerID]uint64{0: below}
	var heads [][]byte
	store.SetSegmentSize(t, 4<<10)
	for _, retained := range []int{64, 16384} {
		dir := t.TempDir()
		st := openStore(t, dir, roster, store.Options{Sync: store.SyncNever})
		d := dag.New(roster)
		for _, b := range blocks[:below+retained] {
			if err := d.Insert(b); err != nil {
				t.Fatal(err)
			}
		}
		appendAll(t, st, d.Blocks())
		before := readDirBytes(t, dir)
		st.SetStateCheckpoint(testStateCkpt(9))
		if err := st.PruneTo(d, horizon); err != nil {
			t.Fatal(err)
		}
		after := readDirBytes(t, dir)
		var added []string
		for name, data := range after {
			old, ok := before[name]
			switch {
			case !ok:
				added = append(added, name)
			case !bytes.Equal(old, data):
				t.Fatalf("%d retained: the cut rewrote %s", retained, name)
			}
		}
		if len(added) != 1 || added[0] != "head" {
			t.Fatalf("%d retained: the cut added %v, want the head alone", retained, added)
		}
		if len(after) > len(before) {
			t.Fatalf("%d retained: the cut deleted no segment below the horizon", retained)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		heads = append(heads, after["head"])
	}
	if !bytes.Equal(heads[0], heads[1]) {
		t.Fatalf("the cut wrote %d B at 64 retained rows and %d B at 16 384, want the same head", len(heads[0]), len(heads[1]))
	}
}
