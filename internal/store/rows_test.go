package store

import (
	"bytes"
	"errors"
	"path/filepath"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/types"
)

// readsBack checks that st answers every row of want, handed the block's
// predecessors as the DAG hands them, with the block's frame, byte for byte,
// and every nil row with dag.ErrPruned.
func readsBack(t *testing.T, when string, st *Store, want []*block.Block) {
	t.Helper()
	for row, b := range want {
		var preds []block.Ref
		if b != nil {
			preds = b.Preds
		}
		got, err := st.Block(row, preds)
		switch {
		case b == nil && !errors.Is(err, dag.ErrPruned):
			t.Fatalf("%s: row %d was pruned, read back as %v (%v)", when, row, got, err)
		case b == nil:
		case err != nil:
			t.Fatalf("%s: row %d: %v", when, row, err)
		case !bytes.Equal(got.Encode(), b.Encode()):
			t.Fatalf("%s: row %d read back as another frame", when, row)
		}
	}
}

// TestBlockReadsEveryRowBack: Store.Block, handed a row's predecessors,
// answers for every row the sink numbered with the very frame that was
// appended — while it sits in the group-commit batch, from a kind-4 WAL
// segment (and after a reopen), from a snapshot after a Checkpoint, from a
// WAL segment behind it — and answers a row PruneTo cut with dag.ErrPruned.
// Whether a record rebuilds the row's reference is the DAG's check (dag's
// TestReadBackIsChecked).
func TestBlockReadsEveryRowBack(t *testing.T) {
	h := dagtest.NewHarness(3)
	for r := 0; r < 6; r++ {
		h.Round(map[int][]block.Request{r % 3: {{Label: "row", Data: []byte{byte(r), 1, 2, 3}}}})
	}
	blocks := h.DAG.Blocks()
	dir := t.TempDir()
	st, err := Open(dir, Options{Roster: h.Roster, Sync: SyncNever, SegmentSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	half := len(blocks) / 2
	st.BeginBatch()
	for _, b := range blocks[:half] {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	readsBack(t, "in the batch", st, blocks[:half])
	if err := st.FlushBatch(); err != nil {
		t.Fatal(err)
	}
	for _, b := range blocks[half:] {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if wals, _ := filepath.Glob(filepath.Join(dir, "*.wal")); len(wals) < 2 {
		t.Fatalf("%d WAL segments: want the rows spread over several", len(wals))
	}
	readsBack(t, "kind-4 segments", st, blocks)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir, Options{Roster: h.Roster, Sync: SyncNever, SegmentSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	readsBack(t, "after a reopen", st, blocks)
	if _, err := st.Checkpoint(h.DAG); err != nil {
		t.Fatal(err)
	}
	readsBack(t, "from a snapshot", st, blocks)
	more := h.Round(nil)
	for _, b := range more {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	blocks = append(blocks, more...)
	readsBack(t, "behind a snapshot", st, blocks)

	st.SetStateCheckpoint(&StateCheckpoint{Slot: 1})
	horizon := map[types.ServerID]uint64{0: 3, 1: 2}
	if _, err := st.PruneTo(h.DAG, horizon); err != nil {
		t.Fatal(err)
	}
	var kept, cut []*block.Block
	for _, b := range blocks {
		if b.Seq >= horizon[b.Builder] {
			kept = append(kept, b)
			cut = append(cut, b)
		} else {
			cut = append(cut, nil)
		}
	}
	readsBack(t, "after a prune", st, cut)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir, Options{Roster: h.Roster, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	readsBack(t, "a pruned store reopened", st, kept)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}
