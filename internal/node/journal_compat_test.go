package node_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dagtest"
	"blockdag/internal/interpret"
	"blockdag/internal/node"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

// TestExplicitRuleJournalReplays: a store written when blocks cited every
// block their builder had inserted, and were read predecessor by
// predecessor, replays through node.New to the indications it produced when
// it was written — the same values in the same order for the server that
// owns it, and for every simulated server at the same blocks. A block that
// cites each inserted block once brings into its chain's ancestry exactly
// the blocks it cites, so reading the ancestry reads what reading the
// predecessors read (testdata/explicit-journal/README has the provenance).
// The chain then continues under the tip rule.
func TestExplicitRuleJournalReplays(t *testing.T) {
	const fixture = "testdata/explicit-journal"
	golden, err := os.ReadFile(filepath.Join(fixture, "indications.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var wantOwn, wantAt []string
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		if rest, own := strings.CutPrefix(line, "own "); own {
			wantOwn = append(wantOwn, rest)
		} else {
			wantAt = append(wantAt, strings.TrimPrefix(line, "at "))
		}
	}
	// Opening a store may repair and extend it: work on a copy.
	dir := t.TempDir()
	wal, err := os.ReadFile(filepath.Join(fixture, "0000000000000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "0000000000000001.wal"), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(dir, store.Options{Roster: roster})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = st.Close() }()
	var gotOwn []string
	srv, err := core.NewServer(core.Config{
		Roster: roster, Signer: signers[1], Protocol: brb.Protocol{},
		Transport: simnet.New().Transport(1), Clock: node.Clock(),
		OnIndication: func(label types.Label, value []byte) {
			gotOwn = append(gotOwn, fmt.Sprintf("%s %s", label, value))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	nd, err := node.New(node.Config{Server: srv, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotOwn, wantOwn) {
		t.Fatalf("replay indicated\n%v\nwhen written the server indicated\n%v", gotOwn, wantOwn)
	}

	// The journal really is an explicit-rule one: its blocks cite blocks
	// their other references already reach, which the tip rule never does.
	d := srv.DAG()
	redundant := 0
	for b := range d.All() {
		for _, p := range b.Preds {
			if slices.ContainsFunc(b.Preds, func(q block.Ref) bool { return p != q && d.Reaches(p, q) }) {
				redundant++
			}
		}
	}
	if d.Len() != 88 || redundant == 0 {
		t.Fatalf("fixture replayed as %d blocks with %d redundant citations", d.Len(), redundant)
	}
	var gotAt []string
	it := interpret.New(brb.Protocol{}, 4, 1, func(ind interpret.Indication) {
		gotAt = append(gotAt, fmt.Sprintf("%x %v %s %s", ind.Block[:], ind.Server, ind.Label, ind.Value))
	})
	if err := it.InterpretDAG(d); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(gotAt, wantAt) {
		t.Fatalf("interpretation indicates\n%s\nwhen written it indicated\n%s", strings.Join(gotAt, "\n"), strings.Join(wantAt, "\n"))
	}

	// The old chain continues: next sequence number, on top of the old tip.
	own := d.ByBuilder(1)
	tip := own[len(own)-1]
	nd.Disseminate()
	if err := nd.Err(); err != nil {
		t.Fatal(err)
	}
	own = d.ByBuilder(1)
	if next := own[len(own)-1]; !extends(next, tip) || len(dagtest.Forked(d)) != 0 {
		t.Fatalf("block after replay is seq %d on a chain whose tip was seq %d", next.Seq, tip.Seq)
	}
}
