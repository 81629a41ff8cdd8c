package trace

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dag"
	"blockdag/internal/dagtest"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
)

func figure4Harness(t *testing.T) (*dagtest.Harness, map[block.Ref]Buffers) {
	t.Helper()
	h := dagtest.NewHarness(4)
	h.Round(map[int][]block.Request{0: {{Label: "ℓ1", Data: []byte("42")}}})
	for r := 0; r < 3; r++ {
		h.Round(nil)
	}
	buffers, err := InterpretBuffers(h.DAG, brb.Protocol{}, 4, 1, "ℓ1")
	if err != nil {
		t.Fatal(err)
	}
	return h, buffers
}

func TestDOTStructure(t *testing.T) {
	h, _ := figure4Harness(t)
	dot := DOT(h.DAG, nil)
	if !strings.HasPrefix(dot, "digraph blockdag {") {
		t.Fatal("missing digraph header")
	}
	for _, want := range []string{"cluster_s0", "cluster_s3", "s0/k0", "s3/k3", "->"} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT output missing %q", want)
		}
	}
	// 16 blocks: every ref appears as a node.
	if got := strings.Count(dot, "[label=\"s"); got != 16 {
		t.Fatalf("DOT has %d block nodes, want 16", got)
	}
}

func TestDOTWithBufferAnnotations(t *testing.T) {
	h, buffers := figure4Harness(t)
	dot := DOT(h.DAG, BufferAnnotator(buffers))
	// The request block fans ECHO out to all four servers.
	if !strings.Contains(dot, "out: 4 msgs to {s0,s1,s2,s3}") {
		t.Fatalf("annotation for the broadcast block missing:\n%s", dot)
	}
	// First responders saw the echo from s0 only.
	if !strings.Contains(dot, "in: 1 msgs from {s0}") {
		t.Fatal("first-responder annotation missing")
	}
	// Quorum blocks collected echoes from s1,s2,s3.
	if !strings.Contains(dot, "in: 3 msgs from {s1,s2,s3}") {
		t.Fatal("quorum annotation missing")
	}
}

// countingProtocol counts the process instances it creates.
type countingProtocol struct {
	protocol.Protocol
	created *int
}

func (p countingProtocol) NewProcess(cfg protocol.Config) protocol.Process {
	*p.created++
	return p.Protocol.NewProcess(cfg)
}

// TestInterpretBuffersIsOnePass: the buffers are collected while the
// interpreter still holds them. A query that found them released would
// replay history into fresh instances; over twenty rounds none is made
// beyond the one per chain that ran ℓ1.
func TestInterpretBuffersIsOnePass(t *testing.T) {
	h := dagtest.NewHarness(4)
	h.Round(map[int][]block.Request{0: {{Label: "ℓ1", Data: []byte("42")}}})
	for r := 0; r < 20; r++ {
		h.Round(nil)
	}
	created := 0
	buffers, err := InterpretBuffers(h.DAG, countingProtocol{brb.Protocol{}, &created}, 4, 1, "ℓ1")
	if err != nil {
		t.Fatal(err)
	}
	if created != 4 || len(buffers) == 0 {
		t.Fatalf("%d instances created for one label on four chains, %d blocks with buffers", created, len(buffers))
	}
}

// failingJournal answers for released rows from blocks, the DAG's rows in
// insertion order, except row fail, which it cannot read back.
type failingJournal struct {
	blocks []*block.Block
	fail   int
}

var errUnreadable = errors.New("unreadable record")

func (j failingJournal) Block(row int, _ []block.Ref) (*block.Block, error) {
	if row == j.fail {
		return nil, errUnreadable
	}
	return j.blocks[row], nil
}

// TestInterpretBuffersFailsOnAnUnreadableRow: a released block the journal
// cannot read back is the error, not the end of the DAG.
func TestInterpretBuffersFailsOnAnUnreadableRow(t *testing.T) {
	h, _ := figure4Harness(t)
	blocks := h.DAG.Blocks()
	d := dag.New(h.Roster)
	d.SetJournal(failingJournal{blocks: blocks, fail: 5})
	for _, b := range blocks {
		if err := d.InsertVerified(b); err != nil {
			t.Fatal(err)
		}
	}
	d.Release(slices.Repeat([]uint64{1 << 20}, 4))
	if _, err := InterpretBuffers(d, brb.Protocol{}, 4, 1, "ℓ1"); !errors.Is(err, errUnreadable) {
		t.Fatalf("InterpretBuffers returned %v, want the journal's error", err)
	}
}

// TestInterpretBuffersOverASeededDAG: a DAG standing on a pruned-history
// base — what dagstore render reads back from a cut store — is interpreted
// from its stand-ins. The first live blocks cite them, and the buffers match those
// of the whole DAG, whose first round carried no request.
func TestInterpretBuffersOverASeededDAG(t *testing.T) {
	h := dagtest.NewHarness(4)
	first := h.Round(nil)
	h.Round(map[int][]block.Request{0: {{Label: "ℓ1", Data: []byte("42")}}})
	for r := 0; r < 3; r++ {
		h.Round(nil)
	}
	var base []dag.Base
	for _, b := range first {
		base = append(base, dag.Base{Builder: b.Builder, Seq: b.Seq, Ref: b.Ref()})
	}
	d := dag.New(h.Roster)
	if err := d.SeedBase(base); err != nil {
		t.Fatal(err)
	}
	for _, b := range h.DAG.Blocks()[len(first):] {
		if err := d.Insert(b); err != nil {
			t.Fatal(err)
		}
	}
	seeded, err := InterpretBuffers(d, brb.Protocol{}, 4, 1, "ℓ1")
	if err != nil {
		t.Fatalf("interpreting the seeded DAG: %v", err)
	}
	whole, err := InterpretBuffers(h.DAG, brb.Protocol{}, 4, 1, "ℓ1")
	if err != nil {
		t.Fatal(err)
	}
	if len(seeded) == 0 || !reflect.DeepEqual(seeded, whole) {
		t.Fatalf("seeded DAG has buffers at %d blocks, the whole DAG at %d; want the same buffers", len(seeded), len(whole))
	}
}

func TestASCII(t *testing.T) {
	h, _ := figure4Harness(t)
	out := ASCII(h.DAG, nil)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 16 {
		t.Fatalf("ASCII has %d lines, want 16", len(lines))
	}
	if !strings.Contains(out, "rs=(ℓ1,2B)") {
		t.Fatal("request annotation missing")
	}
}

func TestASCIIShowsEquivocation(t *testing.T) {
	h := dagtest.NewHarness(2)
	var forks [][2]*block.Block
	h.DAG.SetOnEquivocation(func(first, second *block.Block) {
		forks = append(forks, [2]*block.Block{first, second})
	})
	h.Genesis(0)
	forkA := h.Seal(0, 1, []block.Ref{h.Tip(0)})
	forkB := h.Seal(0, 1, []block.Ref{h.Tip(0)}, block.Request{Label: "x"})
	h.Insert(forkA)
	h.Insert(forkB)
	out := ASCII(h.DAG, forks)
	if want := fmt.Sprintf("EQUIVOCATION s0 at k1: %s vs %s\n", forkA.Ref(), forkB.Ref()); !strings.Contains(out, want) {
		t.Fatalf("equivocation not rendered:\n%s", out)
	}
}
