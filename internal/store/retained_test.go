package store_test

import (
	"runtime"
	"testing"

	"blockdag/internal/crypto"
	"blockdag/internal/dagtest"
	"blockdag/internal/store"
)

// retainedPerRestoredRowBound is what a reopened store may keep per block it
// read once a sink has been handed all of them back: the row's 8-byte
// location and the column's append slack: 11 B measured. 49 B while the
// store kept each restored block's reference beside it, to read records back
// against.
const retainedPerRestoredRowBound = 24

// journaled writes count blocks to a fresh store in dir and closes it,
// keeping none of them.
func journaled(t *testing.T, dir string, count int) *crypto.Roster {
	roster, blocks := chain(t, count)
	st := openStore(t, dir, roster, store.Options{Sync: store.SyncNever})
	appendAll(t, st, blocks)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return roster
}

// TestRetainedPerRestoredRow: a restored row costs the store its location
// and nothing else. 4 096 journaled blocks are opened, handed back to a sink
// as a restore replays them, and dropped; what the store holds then is
// measured.
func TestRetainedPerRestoredRow(t *testing.T) {
	const count = 4096
	dir := t.TempDir()
	roster := journaled(t, dir, count)

	before := dagtest.LiveHeap()
	st := openStore(t, dir, roster, store.Options{Sync: store.SyncNever})
	defer st.Close()
	sink := st.PersistSink(0)
	for _, b := range st.Blocks() {
		if err := sink(b); err != nil {
			t.Fatal(err)
		}
	}
	if st.Blocks() != nil || st.Len() != count {
		t.Fatalf("after the replay: %d blocks held, Len %d; want none held and %d journaled", len(st.Blocks()), st.Len(), count)
	}
	perRow := float64(dagtest.LiveHeap()-before) / count
	runtime.KeepAlive(st)
	t.Logf("%.1f B retained per restored row", perRow)
	if perRow > retainedPerRestoredRowBound {
		t.Fatalf("a store retains %.1f B per restored row, bound %d", perRow, retainedPerRestoredRowBound)
	}
}
