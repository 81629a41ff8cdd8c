package block_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/dagtest"
	"blockdag/internal/types"
)

// TestRetainedPerDecodedBlock pins what a decoded block holds beside the
// frame it was decoded from: the Block itself, 40 B a request (label
// header, data header) and one copy of the label bytes — no second copy of
// any payload, signature or reference. The constant is the Block (144 B)
// with room for one size class; an eighth on the two per-request terms is
// the allocator's rounding. Copying the fields out, as Decode once did,
// costs Σ|Data| + 64 + 32·|preds| + 16·r more and fails every shape here.
func TestRetainedPerDecodedBlock(t *testing.T) {
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 1024
	for _, shape := range []struct {
		name           string
		preds, r, data int
	}{
		{"sparse", 2, 0, 0},
		{"steady", 3, 10, 32},
		{"dense", 3, 30, 256},
	} {
		frames := make([][]byte, blocks)
		labelBytes := shape.r * len("pay/0000")
		for i := range frames {
			reqs := make([]block.Request, shape.r)
			for k := range reqs {
				reqs[k] = block.Request{Label: types.Label(fmt.Sprintf("pay/%04d", k)), Data: make([]byte, shape.data)}
			}
			preds := make([]block.Ref, shape.preds)
			for k := range preds {
				preds[k] = block.Ref{byte(i), byte(i >> 8), byte(k)}
			}
			b := block.New(0, uint64(i), preds, reqs)
			if err := b.Seal(signers[0]); err != nil {
				t.Fatal(err)
			}
			frames[i] = bytes.Clone(b.Encode())
		}
		decoded := make([]*block.Block, blocks)
		before := dagtest.LiveHeap()
		for i, frame := range frames {
			if decoded[i], err = block.Decode(frame); err != nil {
				t.Fatal(err)
			}
		}
		after := dagtest.LiveHeap()
		runtime.KeepAlive(frames)
		runtime.KeepAlive(decoded)
		got := int64(after-before) / blocks
		bound := int64(160 + (40*shape.r+labelBytes)*9/8)
		t.Logf("%s: %d B retained per decoded block beside its frame (bound %d)", shape.name, got, bound)
		if got > bound {
			t.Errorf("%s: a decoded block of %d requests retains %d B beside its frame, want at most %d",
				shape.name, shape.r, got, bound)
		}
	}
}
