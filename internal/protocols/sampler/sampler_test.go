package sampler

import (
	"fmt"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/interpret"
	"blockdag/internal/protocol"
	"blockdag/internal/types"
)

func TestSampleIsSeededByEntropy(t *testing.T) {
	cfg := protocol.Config{Self: 0, Label: "s", N: 7, F: 2}
	mk := func(seedByte byte) []types.ServerID {
		p, ok := Protocol{}.NewProcess(cfg).(*process)
		if !ok {
			t.Fatal("unexpected process type")
		}
		var seed [32]byte
		seed[0] = seedByte
		p.SetEntropy(seed)
		msgs := p.Request(EncodeRequest(3))
		if len(msgs) != 3 {
			t.Fatalf("probe count = %d", len(msgs))
		}
		return append([]types.ServerID(nil), p.sampled...)
	}
	a1, a2 := mk(1), mk(1)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("same entropy produced different samples")
		}
	}
	// Different entropy eventually produces a different sample.
	different := false
	for s := byte(2); s < 12 && !different; s++ {
		b := mk(s)
		for i := range a1 {
			if a1[i] != b[i] {
				different = true
			}
		}
	}
	if !different {
		t.Fatal("10 different seeds never changed the sample")
	}
}

func TestSampleExcludesSelfAndIsDistinct(t *testing.T) {
	cfg := protocol.Config{Self: 3, Label: "s", N: 7, F: 2}
	p, ok := Protocol{}.NewProcess(cfg).(*process)
	if !ok {
		t.Fatal("unexpected process type")
	}
	p.SetEntropy([32]byte{9})
	p.Request(EncodeRequest(5))
	seen := make(map[types.ServerID]bool)
	for _, peer := range p.sampled {
		if peer == 3 {
			t.Fatal("sampled self")
		}
		if seen[peer] {
			t.Fatal("sampled duplicate peer")
		}
		seen[peer] = true
	}
	if len(seen) != 5 {
		t.Fatalf("sampled %d peers, want 5", len(seen))
	}
}

func TestInvalidRequestsIgnored(t *testing.T) {
	cfg := protocol.Config{Self: 0, Label: "s", N: 4, F: 1}
	p := Protocol{}.NewProcess(cfg)
	if out := p.Request(EncodeRequest(0)); out != nil {
		t.Fatal("k=0 accepted")
	}
	if out := p.Request(EncodeRequest(4)); out != nil {
		t.Fatal("k=N accepted")
	}
	if out := p.Request([]byte{0xff, 0xff}); out != nil {
		t.Fatal("garbage accepted")
	}
}

// TestEmbeddedSamplerDeterministic is the de-randomization theorem in
// action: a randomized protocol embedded in the DAG, interpreted by
// independent interpreters, produces identical samples and identical
// indications — because the coin flips derive from block references.
func TestEmbeddedSamplerDeterministic(t *testing.T) {
	build := func() (*dagtest.Harness, []interpret.Indication) {
		h := dagtest.NewHarness(4)
		var inds []interpret.Indication
		it := interpret.New(Protocol{}, 4, 1,
			func(ind interpret.Indication) { inds = append(inds, ind) })
		h.Round(map[int][]block.Request{
			0: {{Label: "probe/a", Data: EncodeRequest(2)}},
			2: {{Label: "probe/b", Data: EncodeRequest(1)}},
		})
		for r := 0; r < 3; r++ {
			h.Round(nil)
		}
		if err := it.InterpretDAG(h.DAG); err != nil {
			t.Fatal(err)
		}
		return h, inds
	}
	_, inds1 := build()
	_, inds2 := build()
	if len(inds1) == 0 {
		t.Fatal("no indications: probes never completed")
	}
	if len(inds1) != len(inds2) {
		t.Fatalf("indication counts differ: %d vs %d", len(inds1), len(inds2))
	}
	key := func(i interpret.Indication) string {
		return fmt.Sprintf("%v|%s|%x", i.Server, i.Label, i.Value)
	}
	for i := range inds1 {
		if key(inds1[i]) != key(inds2[i]) {
			t.Fatalf("runs diverge at indication %d: %s vs %s", i, key(inds1[i]), key(inds2[i]))
		}
	}
	// The indication decodes to a valid sample.
	peers, err := DecodeIndication(inds1[0].Value)
	if err != nil {
		t.Fatal(err)
	}
	if len(peers) == 0 {
		t.Fatal("empty sample in indication")
	}
}

// TestDifferentLabelsSampleDifferently: entropy binds the label, so two
// instances requested in the same block draw independent samples.
func TestDifferentLabelsSampleDifferently(t *testing.T) {
	h := dagtest.NewHarness(8)
	it := interpret.New(Protocol{}, 8, 2, nil)
	reqs := make([]block.Request, 8)
	for i := range reqs {
		reqs[i] = block.Request{Label: types.Label(fmt.Sprintf("p/%d", i)), Data: EncodeRequest(3)}
	}
	h.Round(map[int][]block.Request{0: reqs})
	if err := it.InterpretDAG(h.DAG); err != nil {
		t.Fatal(err)
	}
	requestBlock := h.DAG.ByBuilder(0)[0]
	samples := make(map[string]bool)
	for i := range reqs {
		out := it.OutMessages(requestBlock.Ref(), reqs[i].Label)
		var sig string
		for _, m := range out {
			sig += fmt.Sprintf("%v,", m.Receiver)
		}
		samples[sig] = true
	}
	if len(samples) < 2 {
		t.Fatal("eight labels all drew the identical sample; entropy not label-bound")
	}
}
