package store

import (
	"bytes"
	"errors"
	"os"
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
// segment, after a reopen and from the segment appended to after it — and
// answers a row PruneTo cut with dag.ErrPruned. A horizon that falls
// inside a sealed segment keeps that segment whole, and a reopen of the
// cut store reads the rows at or above the horizon alone. Whether a record
// rebuilds the row's reference is the DAG's check (dag's
// TestReadBackIsChecked).
func TestBlockReadsEveryRowBack(t *testing.T) {
	h := dagtest.NewHarness(3)
	for r := 0; r < 6; r++ {
		h.Round(map[int][]block.Request{r % 3: {{Label: "row", Data: []byte{byte(r), 1, 2, 3}}}})
	}
	blocks := h.DAG.Blocks()
	dir := t.TempDir()
	SetSegmentSize(t, 1<<10)
	st, err := Open(dir, Options{Roster: h.Roster, Sync: SyncNever})
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

	st, err = Open(dir, Options{Roster: h.Roster, Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	readsBack(t, "after a reopen", st, blocks)
	more := h.Round(nil)
	for _, b := range more {
		if err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	blocks = append(blocks, more...)
	readsBack(t, "appended after a reopen", st, blocks)

	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	before := segmentFiles(t, dir)
	st.SetStateCheckpoint(&StateCheckpoint{Slot: 1})
	horizon := map[types.ServerID]uint64{0: 3, 1: 2}
	if err := st.PruneTo(h.DAG, horizon); err != nil {
		t.Fatal(err)
	}
	// Builder 2 keeps all its blocks, so every segment holds one at or
	// above the horizon and the first holds blocks below it too.
	after := segmentFiles(t, dir)
	if len(after) != len(before) {
		t.Fatalf("the cut left %d of %d segments, want every one", len(after), len(before))
	}
	for name, data := range before {
		if !bytes.Equal(after[name], data) {
			t.Fatalf("the cut rewrote segment %s", name)
		}
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
	if st.Len() != len(kept) {
		t.Fatalf("a pruned store reopened holds %d rows, want the %d at or above the horizon", st.Len(), len(kept))
	}
	readsBack(t, "a pruned store reopened", st, kept)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// segmentFiles returns dir's WAL segments as name → contents.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	wals, err := filepath.Glob(filepath.Join(dir, "*"+extWAL))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(wals))
	for _, wal := range wals {
		data, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(wal)] = data
	}
	return out
}
