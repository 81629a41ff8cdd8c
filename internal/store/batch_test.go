package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

// readDirBytes returns the store directory's files as name → contents.
func readDirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// appendBatch journals blocks as one group commit, the way the runtime
// brackets an ingest burst or a pulled stream.
func appendBatch(st *store.Store, blocks []*block.Block) error {
	st.BeginBatch()
	var firstErr error
	for _, b := range blocks {
		if firstErr = st.Append(b); firstErr != nil {
			break
		}
	}
	if err := st.FlushBatch(); firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// TestAppendBatchByteIdenticalToSequential is the group-commit safety
// property: batching changes how many syscalls produce the journal, not
// one byte of it. The same blocks appended one by one and as one batch —
// across several forced segment rotations — must leave byte-identical
// directories.
func TestAppendBatchByteIdenticalToSequential(t *testing.T) {
	roster, blocks := chain(t, 200)
	// Small segments so the batch spans multiple rotation boundaries.
	store.SetSegmentSize(t, 2048)
	opts := store.Options{Sync: store.SyncNever}

	seqDir, batchDir := t.TempDir(), t.TempDir()
	seq := openStore(t, seqDir, roster, opts)
	appendAll(t, seq, blocks)
	if err := seq.Close(); err != nil {
		t.Fatal(err)
	}

	batch := openStore(t, batchDir, roster, opts)
	if err := appendBatch(batch, blocks); err != nil {
		t.Fatal(err)
	}
	if err := batch.Close(); err != nil {
		t.Fatal(err)
	}

	seqFiles, batchFiles := readDirBytes(t, seqDir), readDirBytes(t, batchDir)
	if len(seqFiles) < 2 {
		t.Fatalf("want multiple segments to exercise rotation, got %d file(s)", len(seqFiles))
	}
	if len(seqFiles) != len(batchFiles) {
		t.Fatalf("sequential store has %d files, batched has %d", len(seqFiles), len(batchFiles))
	}
	for name, want := range seqFiles {
		got, ok := batchFiles[name]
		if !ok {
			t.Fatalf("batched store is missing segment %s", name)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("segment %s differs between sequential and batched append", name)
		}
	}
}

// TestSingleAppendAllocatesNothing: an append outside a group-commit
// window is a batch of one through the same reused buffers, so steady
// journaling allocates nothing per block.
func TestSingleAppendAllocatesNothing(t *testing.T) {
	roster, blocks := chain(t, 420)
	st := openStore(t, t.TempDir(), roster, store.Options{Sync: store.SyncNever})
	defer st.Close()
	// Grow the record buffer past what the measured appends need.
	appendAll(t, st, blocks[:210])
	next := 210
	allocs := testing.AllocsPerRun(200, func() {
		if err := st.Append(blocks[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("a single append allocates %v times, want 0", allocs)
	}
}

// TestAppendBatchRecovers: a flushed batch is exactly as recoverable as
// individual appends, records written twice — inside a batch and across
// batches — included: Append keeps no index to refuse them by, Open drops
// them.
func TestAppendBatchRecovers(t *testing.T) {
	roster, blocks := chain(t, 64)
	dir := t.TempDir()
	st := openStore(t, dir, roster, store.Options{})
	// Pre-journal a prefix, then batch the whole chain with an internal
	// duplicate: eleven records the store holds already.
	appendAll(t, st, blocks[:10])
	withDup := append(append([]*block.Block(nil), blocks...), blocks[20])
	if err := appendBatch(st, withDup); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re := openStore(t, dir, roster, store.Options{})
	defer re.Close()
	if got := len(re.Blocks()); got != len(blocks) {
		t.Fatalf("recovered %d blocks, want %d", got, len(blocks))
	}
	if re.Report().Duplicates != 11 {
		t.Fatalf("Open dropped %d duplicate records, want 11", re.Report().Duplicates)
	}
	if !sameRefs(re.Blocks(), blocks) {
		t.Fatal("recovered blocks differ from the appended chain")
	}
}

// TestBatchBuffersUntilFlush: inside the window nothing hits the disk;
// FlushBatch writes it all. Sync drains an open window too (durability
// requests beat batching), and Close never loses a buffered record.
func TestBatchBuffersUntilFlush(t *testing.T) {
	roster, blocks := chain(t, 8)
	dir := t.TempDir()
	st := openStore(t, dir, roster, store.Options{Sync: store.SyncNever})

	st.BeginBatch()
	appendAll(t, st, blocks[:4])
	size, err := st.DiskSize()
	if err != nil {
		t.Fatal(err)
	}
	if size != 0 {
		t.Fatalf("buffered batch wrote %d bytes before FlushBatch", size)
	}
	if err := st.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	size, err = st.DiskSize()
	if err != nil {
		t.Fatal(err)
	}
	if size == 0 {
		t.Fatal("FlushBatch wrote nothing")
	}

	// Sync mid-window drains the buffer without closing the window.
	st.BeginBatch()
	appendAll(t, st, blocks[4:6])
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	after, err := st.DiskSize()
	if err != nil {
		t.Fatal(err)
	}
	if after <= size {
		t.Fatal("Sync did not drain the open batch window")
	}

	// Close with a still-open window holding records: nothing is lost.
	appendAll(t, st, blocks[6:])
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir, roster, store.Options{})
	defer re.Close()
	if got := len(re.Blocks()); got != len(blocks) {
		t.Fatalf("recovered %d blocks, want %d", got, len(blocks))
	}
}

// TestAppendBatchOversizedRecord: a single record larger than the
// segment threshold still lands (records are never split; a segment may
// exceed the threshold by one record), matching Append's rule.
func TestAppendBatchOversizedRecord(t *testing.T) {
	roster, blocks := chain(t, 3)
	dir := t.TempDir()
	store.SetSegmentSize(t, 16)
	st := openStore(t, dir, roster, store.Options{})
	if err := appendBatch(st, blocks); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir, roster, store.Options{})
	defer re.Close()
	if got := len(re.Blocks()); got != len(blocks) {
		t.Fatalf("recovered %d blocks, want %d", got, len(blocks))
	}
}

// TestCheckpointDrainsOpenBatch: a cut taken while a batch window is open
// first writes the buffered records, so after FlushBatch and a reopen no
// row at or above the horizon is lost.
func TestCheckpointDrainsOpenBatch(t *testing.T) {
	roster, blocks := chain(t, 12)
	dir := t.TempDir()
	st := openStore(t, dir, roster, store.Options{})
	st.BeginBatch()
	appendAll(t, st, blocks)
	d := dag.New(roster)
	for _, b := range blocks {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	st.SetStateCheckpoint(&store.StateCheckpoint{Slot: 1})
	if err := st.PruneTo(d, map[types.ServerID]uint64{0: 4}); err != nil {
		t.Fatal(err)
	}
	if err := st.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir, roster, store.Options{})
	defer re.Close()
	if !sameRefs(re.Blocks(), blocks[4:]) {
		t.Fatalf("recovered %d blocks, want the %d at or above the horizon", len(re.Blocks()), len(blocks[4:]))
	}
}
