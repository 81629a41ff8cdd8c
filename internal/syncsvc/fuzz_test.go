package syncsvc_test

import (
	"bytes"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/syncsvc"
	"blockdag/internal/wire"
)

// framed concatenates frames the way a fuzz input carries a whole stream:
// each behind a wire length prefix.
func framed(t testing.TB, frames ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, fr := range frames {
		if err := wire.WriteFrame(&buf, fr); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzPullFrames drives arbitrary frame sequences — everything an
// untrusted serving peer controls — through Pull.OnFrame and OnDone: no
// panic, every accepted block carries a roster member's signature, the
// accepted count never exceeds the cap, and a settled pull ignores
// whatever arrives late.
func FuzzPullFrames(f *testing.F) {
	const limit = 4
	roster, blocks := buildChain(f, 6)
	batch := syncsvc.EncodeBatchFrame(blocks[:3])
	f.Add(framed(f, batch, syncsvc.EncodeDoneFrame(3)))
	f.Add(framed(f, batch, syncsvc.EncodeBatchFrame(blocks[3:]), syncsvc.EncodeDoneFrame(6))) // over the cap
	f.Add(framed(f, syncsvc.EncodeBatchFrame([]*block.Block{dagtest.Forge(blocks[0])}), syncsvc.EncodeDoneFrame(1)))
	f.Add(framed(f, batch, syncsvc.EncodeDoneFrame(2))) // lying summary
	f.Add(framed(f, batch))                             // truncated
	f.Add(framed(f, batch[:len(batch)/2]))
	f.Add(framed(f, []byte{}, []byte{0xEE}, syncsvc.EncodeWatermarkFrame(nil)))

	f.Fuzz(func(t *testing.T, stream []byte) {
		pull := syncsvc.NewPull(roster, nil, limit, nil)
		r := bytes.NewReader(stream)
		for {
			frame, err := wire.ReadFrameLimit(r, 1<<16)
			if err != nil {
				break
			}
			pull.OnFrame(frame)
		}
		pull.OnDone(nil)
		got, perr := pull.Result()
		if len(got) > limit {
			t.Fatalf("accepted %d blocks past a cap of %d", len(got), limit)
		}
		for _, b := range got {
			if !roster.Contains(b.Builder) || !b.VerifySignature(roster) {
				t.Fatalf("accepted block %v does not verify", b.Ref())
			}
		}
		pull.OnFrame(batch)
		pull.OnDone(nil)
		if again, aerr := pull.Result(); len(again) != len(got) || (aerr == nil) != (perr == nil) {
			t.Fatalf("settled pull moved: %d blocks err %v, then %d blocks err %v", len(got), perr, len(again), aerr)
		}
	})
}

// FuzzDecodeRequest: the delta request decoder — reached by any peer that
// can open a call — never panics, and what it accepts is a vector that
// re-encodes to a request decoding to the same vector.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(syncsvc.EncodeRequest(nil))
	f.Add(syncsvc.EncodeRequest([]syncsvc.Watermark{{Builder: 0, NextSeq: 7}, {Builder: 3, NextSeq: 1 << 40}}))
	f.Add(syncsvc.EncodeWatermarkRequest())
	f.Add([]byte{})
	f.Add([]byte{0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})

	f.Fuzz(func(t *testing.T, data []byte) {
		wms, err := syncsvc.DecodeRequest(data)
		if err != nil {
			return
		}
		sameVector(t, wms, func() ([]syncsvc.Watermark, error) {
			return syncsvc.DecodeRequest(syncsvc.EncodeRequest(wms))
		})
	})
}

// FuzzDecodeWatermarkFrame: the watermark answer decoder — fed by
// whichever peer the follower polled — never panics and round-trips what
// it accepts.
func FuzzDecodeWatermarkFrame(f *testing.F) {
	f.Add(syncsvc.EncodeWatermarkFrame(nil))
	f.Add(syncsvc.EncodeWatermarkFrame([]syncsvc.Watermark{{Builder: 1, NextSeq: 3}, {Builder: 2, NextSeq: 0}}))
	f.Add(syncsvc.EncodeDoneFrame(3))
	f.Add([]byte{})
	f.Add([]byte{0x03, 0xFF, 0xFF, 0x03})

	f.Fuzz(func(t *testing.T, data []byte) {
		wms, err := syncsvc.DecodeWatermarkFrame(data)
		if err != nil {
			return
		}
		sameVector(t, wms, func() ([]syncsvc.Watermark, error) {
			return syncsvc.DecodeWatermarkFrame(syncsvc.EncodeWatermarkFrame(wms))
		})
	})
}

// sameVector checks that an accepted vector survives its own codec.
func sameVector(t *testing.T, wms []syncsvc.Watermark, again func() ([]syncsvc.Watermark, error)) {
	t.Helper()
	if len(wms) > 1<<16 {
		t.Fatalf("decoder accepted a %d-entry vector", len(wms))
	}
	back, err := again()
	if err != nil || len(back) != len(wms) {
		t.Fatalf("accepted vector does not round-trip: %d entries, then %d, err %v", len(wms), len(back), err)
	}
	for i := range wms {
		if back[i] != wms[i] {
			t.Fatalf("entry %d round-trips %v -> %v", i, wms[i], back[i])
		}
	}
}
