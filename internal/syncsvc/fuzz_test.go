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
	f.Add(framed(f, []byte{}, []byte{0xEE}, []byte{0x03, 0x00})) // 3 was the watermark answer

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
// can open a call — never panics, and what it accepts is canonical: a
// horizon of strictly ascending builders whose encoding is the input.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(syncsvc.EncodeRequest(nil))
	f.Add(syncsvc.EncodeRequest([]syncsvc.Watermark{{Builder: 0, NextSeq: 7}, {Builder: 3, NextSeq: 1 << 40, Forked: true}}))
	for _, req := range refusedRequests() {
		f.Add(req)
	}
	f.Add([]byte{})
	f.Add([]byte{0x02, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})

	f.Fuzz(func(t *testing.T, data []byte) {
		have, err := syncsvc.DecodeRequest(data)
		if err != nil {
			return
		}
		if len(have) > 1<<16 {
			t.Fatalf("decoder accepted a %d-entry horizon", len(have))
		}
		for i := 1; i < len(have); i++ {
			if have[i].Builder <= have[i-1].Builder {
				t.Fatalf("accepted builders out of order: %v", have)
			}
		}
		if again := syncsvc.EncodeRequest(have); !bytes.Equal(again, data) {
			t.Fatalf("accepted request %x is not the encoding of what it decodes to (%x)", data, again)
		}
	})
}
