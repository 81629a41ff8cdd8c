package node_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"blockdag/internal/core"
	"blockdag/internal/crypto"
	"blockdag/internal/dagtest"
	"blockdag/internal/node"
	"blockdag/internal/simnet"
	"blockdag/internal/store"
	"blockdag/internal/types"
)

// TestUnclaimedBrokerKeepsNothing: the replay index is a gateway's. A node
// no gateway serves hands each indication on and keeps nothing of it —
// 0 B retained and 0 allocations a publication, the sequence still
// advancing — and a node restored from a store keeps what the replay
// indexed only if the index is claimed before its first publication after
// New.
func TestUnclaimedBrokerKeepsNothing(t *testing.T) {
	t.Run("no gateway", func(t *testing.T) {
		roster, signers, err := crypto.LocalRoster(4)
		if err != nil {
			t.Fatal(err)
		}
		nd := steppedNode(t, simnet.New(), roster, signers[0], core.Config{}, node.Config{})
		b := nd.Indications()
		const count = 4096
		labels := make([]types.Label, count)
		for i := range labels {
			labels[i] = types.Label(fmt.Sprintf("await/%d", i))
		}
		value := make([]byte, 256)
		before := dagtest.LiveHeap()
		for _, l := range labels {
			b.Publish(l, value)
		}
		perIndication := (float64(dagtest.LiveHeap()) - float64(before)) / count
		runtime.KeepAlive(labels)
		t.Logf("%.2f B retained per indication", perIndication)
		// 0, but for what the package's other tests leave running (an
		// indexed indication of 256 B retains ≈ 420 B).
		if perIndication >= 16 {
			t.Fatalf("a broker nobody claimed retains %.1f B per indication, want 0", perIndication)
		}
		if allocs := testing.AllocsPerRun(100, func() { b.Publish(labels[0], value) }); allocs != 0 {
			t.Fatalf("Publish with no subscriber and no index: %v allocs, want 0", allocs)
		}
		if b.IndexBytes() != 0 {
			t.Fatalf("unclaimed index holds %d B", b.IndexBytes())
		}
		sub := b.Subscribe(1)
		defer sub.Close()
		b.Publish("seq", nil)
		if ind := <-sub.C(); ind.Seq != count+101 {
			t.Fatalf("publication after %d unkept ones has seq %d", count+101, ind.Seq)
		}
	})

	t.Run("restored", func(t *testing.T) {
		c, set := recordedRun(t)
		journal := t.TempDir()
		st, err := store.Open(journal, store.Options{Roster: c.Roster, Sync: store.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range set {
			if err := st.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		for _, claim := range []bool{true, false} {
			dir := t.TempDir()
			if err := os.CopyFS(dir, os.DirFS(journal)); err != nil {
				t.Fatal(err)
			}
			b := durableNode(t, dir, c.Roster, c.Signers[3]).nd.Indications()
			if claim {
				b.ClaimIndex()
			}
			if ind, ok := b.Lookup("done/0"); !ok || string(ind.Value) != "v0" {
				t.Fatalf("claim=%v: replayed label not indexed after New: %v, %v", claim, ind, ok)
			}
			b.Publish("after/new", []byte("x"))
			_, kept := b.Lookup("done/0")
			_, indexed := b.Lookup("after/new")
			if kept != claim || indexed != claim {
				t.Fatalf("claim=%v: after the first publication the index answers for the replay %v, for the publication %v", claim, kept, indexed)
			}
		}
	})
}

// retainedPerIndexedLabelBound is what the await index may keep per label
// beyond the label's and the value's bytes: the label's length byte and
// offset, its slot of the table and its entry of the value column (the
// value's slice header and seq), with the slack of grown arrays. Measured:
// 54 B; 132 B while the index was a map of indications beside a FIFO slice
// of the labels.
const retainedPerIndexedLabelBound = 65

// TestRetainedPerIndexedLabel: 4 096 labels of 32 B, each with a 32-B
// value, published into a claimed index — its full label count — cost the
// index at most retainedPerIndexedLabelBound bytes a label beyond the label
// and the value themselves.
func TestRetainedPerIndexedLabel(t *testing.T) {
	const count, size = node.DefaultRecentLabels, 32
	labels := make([]types.Label, count)
	for i := range labels {
		labels[i] = types.Label(fmt.Sprintf("%032d", i))
	}
	value := make([]byte, size)
	before := dagtest.LiveHeap()
	b := node.NewIndicationBroker(0)
	for _, l := range labels {
		b.Publish(l, value)
	}
	retained := float64(dagtest.LiveHeap()) - float64(before)
	runtime.KeepAlive(labels)
	runtime.KeepAlive(value)
	if _, ok := b.Lookup(labels[0]); !ok {
		t.Fatal("the oldest label was evicted within the label count")
	}
	beyond := retained/count - 2*size
	t.Logf("%.1f B retained per indexed label beyond its %d-B label and %d-B value", beyond, size, size)
	if beyond > retainedPerIndexedLabelBound {
		t.Fatalf("the await index keeps %.1f B a label beyond label and value, want at most %d", beyond, retainedPerIndexedLabelBound)
	}
}
