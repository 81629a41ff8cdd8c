package syncsvc_test

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/state"
	"blockdag/internal/store"
	"blockdag/internal/syncsvc"
	"blockdag/internal/types"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/snapshot.golden from the current encoders")

// captured is a transport.ServerStream that keeps every frame sent on it.
type captured struct {
	frames [][]byte
	err    error
	closed bool
}

func (c *captured) Send(frame []byte) error {
	c.frames = append(c.frames, bytes.Clone(frame))
	return nil
}

func (c *captured) Close(err error) { c.err, c.closed = err, true }

// TestSnapshotFormatsAreGolden pins the bytes of one fixed snapshot in its
// two encodings: the store's head file (horizon, base, checkpoint, one
// proof) and the snapshot-meta frame a sync server answers with for that
// head (its signed commit, chunk count, horizon and base). Both are read
// by other builds — a restarted node's store, a joining peer — so a change
// of either is a format change, not a refactor. go test -run
// TestSnapshotFormatsAreGolden -update rewrites testdata/snapshot.golden.
func TestSnapshotFormatsAreGolden(t *testing.T) {
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	tr := state.NewTree()
	for i := range 12 {
		tr.Put([]byte{'k', byte(i)}, []byte{byte(i), 0xAB})
	}
	ckpt := &store.StateCheckpoint{Chunks: state.Export(tr, 64)}
	ckpt.Slot, ckpt.Root = 9, tr.Root()
	head := &store.Head{
		Horizon: map[types.ServerID]uint64{0: 3, 2: 5, 3: 1},
		Base: []dag.Base{
			{Builder: 0, Seq: 2, Ref: block.Ref{0xA0}},
			{Builder: 2, Seq: 4, Ref: block.Ref{0xA2}},
			{Builder: 3, Seq: 0, Ref: block.Ref{0xA3}},
		},
		State: ckpt,
	}

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{Roster: roster, Sync: store.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	if err := st.InstallSnapshot(head); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendEvidence(dagtest.Proof(1)); err != nil {
		t.Fatal(err)
	}
	headFile, err := os.ReadFile(filepath.Join(dir, "head"))
	if err != nil {
		t.Fatal(err)
	}

	st.SetRuntime(fixed(nil))
	srv := &syncsvc.Server{Store: st, Signer: signers[2]}
	stream := &captured{}
	srv.ServeCall(1, syncsvc.EncodeSnapMetaRequest(), stream)
	if !stream.closed || stream.err != nil || len(stream.frames) != 1 {
		t.Fatalf("meta call: %d frames, closed %v, err %v; want one frame and a clean close", len(stream.frames), stream.closed, stream.err)
	}

	got := "head " + hex.EncodeToString(headFile) + "\nmeta " + hex.EncodeToString(stream.frames[0]) + "\n"
	path := filepath.Join("testdata", "snapshot.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		for _, line := range strings.SplitAfter(got, "\n") {
			if line != "" && !strings.Contains(string(want), line) {
				t.Errorf("encoding differs from %s:\ngot  %s", path, line)
			}
		}
		t.Fatal("the snapshot formats moved")
	}
}
