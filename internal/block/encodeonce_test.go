package block

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"blockdag/internal/crypto"
	"blockdag/internal/types"
)

// Fixtures for the encode-once properties: a spread of block shapes —
// genesis, no preds, many preds, empty and fat payloads — sealed by
// their builder.
func encodeOnceFixtures(t *testing.T) (*crypto.Roster, []*Block) {
	t.Helper()
	roster, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	preds := make([]Ref, 20)
	for i := range preds {
		preds[i] = Ref{byte(i), 0xee}
	}
	shapes := []*Block{
		New(0, 0, nil, nil),
		New(1, 1, preds[:1], nil),
		New(2, 7, preds, []Request{{Label: "a/b", Data: nil}}),
		New(3, 1<<40, preds[:3], []Request{
			{Label: "pay/0", Data: bytes.Repeat([]byte{0xaa}, 200)},
			{Label: "", Data: []byte{1}},
			{Label: types.Label("long/" + string(bytes.Repeat([]byte{'x'}, 130))), Data: bytes.Repeat([]byte{0xbb}, 1<<12)},
		}),
	}
	for _, b := range shapes {
		if err := b.Seal(signers[b.Builder]); err != nil {
			t.Fatal(err)
		}
	}
	return roster, shapes
}

// freshEncode serializes b's current fields from scratch, bypassing the
// cache — the reference the cached frame must stay byte-identical to.
func freshEncode(b *Block) []byte {
	clone := New(b.Builder, b.Seq, b.Preds, b.Requests)
	clone.Sig = append([]byte(nil), b.Sig...)
	return clone.Encode() // unsealed: no cache, serializes fields
}

// TestSealCachesCanonicalFrame: after Seal, Encode returns one stable
// cached frame, byte-identical to a fresh serialization of the fields.
func TestSealCachesCanonicalFrame(t *testing.T) {
	_, shapes := encodeOnceFixtures(t)
	for _, b := range shapes {
		e1, e2 := b.Encode(), b.Encode()
		if &e1[0] != &e2[0] {
			t.Fatalf("block %v: sealed Encode re-serialized (distinct backing arrays)", b.Ref())
		}
		if want := freshEncode(b); !bytes.Equal(e1, want) {
			t.Fatalf("block %v: cached frame differs from fresh serialization", b.Ref())
		}
		if got := b.EncodedSize(); got != len(e1) {
			t.Fatalf("block %v: EncodedSize = %d, len(Encode) = %d", b.Ref(), got, len(e1))
		}
	}
}

// TestDecodeRetainsFrame: Decode takes ownership of its input — the
// decoded block's Encode returns the very bytes that were decoded, so
// re-serving a received or scanned block is zero-copy and byte-stable
// across hops.
func TestDecodeRetainsFrame(t *testing.T) {
	_, shapes := encodeOnceFixtures(t)
	for _, b := range shapes {
		data := append([]byte(nil), b.Encode()...)
		dec, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		enc := dec.Encode()
		if &enc[0] != &data[0] || len(enc) != len(data) {
			t.Fatalf("block %v: decoded Encode is not the decoded input", b.Ref())
		}
	}
}

// TestEncodeRoundTripStable: Seal → Encode → Decode → Encode is
// byte-identical at every step, and the decode reproduces the fields —
// the property making one canonical frame safe to reuse at every site
// (wire, journal, sync stream, evidence).
func TestEncodeRoundTripStable(t *testing.T) {
	roster, shapes := encodeOnceFixtures(t)
	for _, b := range shapes {
		enc := b.Encode()
		dec, err := Decode(append([]byte(nil), enc...))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dec.Encode(), enc) {
			t.Fatalf("block %v: round trip changed the frame", b.Ref())
		}
		if dec.Ref() != b.Ref() || dec.Builder != b.Builder || dec.Seq != b.Seq ||
			len(dec.Preds) != len(b.Preds) || len(dec.Requests) != len(b.Requests) {
			t.Fatalf("block %v: round trip changed fields", b.Ref())
		}
		if !dec.VerifySignature(roster) {
			t.Fatalf("block %v: round trip broke the signature", b.Ref())
		}
	}
}

// frameCursor walks a frame front to back and finds fields in it by
// address — pointer equality only, so the test needs no unsafe. Fields are
// asked for in frame order.
type frameCursor struct {
	frame []byte
	at    int
}

// holds reports whether field lies wholly inside the frame at or after the
// cursor and is capped at its own length, and moves the cursor past it.
func (c *frameCursor) holds(field []byte) bool {
	if len(field) == 0 {
		return true // nothing to hold: a zero-length value decodes to nil
	}
	for ; c.at < len(c.frame); c.at++ {
		if &c.frame[c.at] == &field[0] {
			c.at += len(field)
			return c.at <= len(c.frame) && cap(field) == len(field)
		}
	}
	return false
}

// fieldsAreTheFrame is the layout a sealed or decoded block must have:
// Preds, every Data and Sig are capped sub-slices of Encode(), in frame
// order, so the block holds its payload once and an append to a field
// reallocates instead of reaching the next one. Shared with FuzzDecode.
func fieldsAreTheFrame(t *testing.T, b *Block) {
	t.Helper()
	c := frameCursor{frame: b.Encode()}
	if len(b.Preds) > 0 {
		if cap(b.Preds) != len(b.Preds) || !c.holds(b.Preds[0][:]) {
			t.Fatalf("block %v: Preds are not a capped view of the frame", b.Ref())
		}
		c.at += (len(b.Preds) - 1) * len(Ref{})
	}
	for i, rq := range b.Requests {
		if !c.holds(rq.Data) {
			t.Fatalf("block %v: request %d's Data is not a capped view of the frame", b.Ref(), i)
		}
	}
	if len(b.Sig) == 0 {
		// No bytes to find: the frame ends in the signature's zero length.
		if f := c.frame; f[len(f)-1] != 0 {
			t.Fatalf("block %v: an empty Sig, and the frame does not end in its zero length", b.Ref())
		}
		return
	}
	if !c.holds(b.Sig) || c.at != len(c.frame) {
		t.Fatalf("block %v: Sig is not the capped tail of the frame", b.Ref())
	}
}

// TestFieldsAreTheFrame: a block is its frame, decoded and sealed alike —
// and what the fields say is what the frame says.
func TestFieldsAreTheFrame(t *testing.T) {
	roster, shapes := encodeOnceFixtures(t)
	for _, b := range shapes {
		dec, err := Decode(append([]byte(nil), b.Encode()...))
		if err != nil {
			t.Fatal(err)
		}
		for _, blk := range []*Block{b, dec} {
			fieldsAreTheFrame(t, blk)
			want := append([]byte(nil), blk.Encode()...)
			for _, rq := range blk.Requests {
				_ = append(rq.Data, 0xff)
			}
			_ = append(blk.Sig, 0xff)
			_ = append(blk.Preds, Ref{0xff})
			if !bytes.Equal(blk.Encode(), want) {
				t.Fatalf("block %v: an append to a field wrote into the frame", blk.Ref())
			}
			if !bytes.Equal(freshEncode(blk), want) || Ref(crypto.Hash(signingBytes(blk))) != blk.Ref() {
				t.Fatalf("block %v: fields and frame disagree", blk.Ref())
			}
			if !blk.VerifySignature(roster) {
				t.Fatalf("block %v: signature does not verify", blk.Ref())
			}
		}
	}
}

// paddedPreds returns b's frame with the predecessor count of its body
// written in two bytes instead of one (0 as 0x80 0x00) and the body's
// length prefix adjusted: the same fields in other bytes.
func paddedPreds(t *testing.T, b *Block) []byte {
	t.Helper()
	if len(b.Preds) != 0 || len(signingBytes(b)) >= 0x7f {
		t.Fatal("fixture: want no preds and a one-byte body length")
	}
	body := signingBytes(b)
	padded := append(append(append([]byte{byte(len(body) + 1)}, body[:10]...), 0x80, 0x00), body[11:]...)
	return append(append(padded, byte(len(b.Sig))), b.Sig...)
}

// TestDecodeRejectsPaddedVarint: the body is hashed and signed as sent, so
// a second encoding of the same fields would be a second block with the
// same fields — one whose reference changes when a snapshot re-encodes it
// canonically. Only the minimal encoding decodes.
func TestDecodeRejectsPaddedVarint(t *testing.T) {
	_, shapes := encodeOnceFixtures(t)
	padded := paddedPreds(t, shapes[0])
	if _, err := Decode(padded); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Decode of a padded predecessor count: err = %v, want ErrMalformed", err)
	}
	// The canonical bytes of the same fields decode.
	if _, err := Decode(append([]byte(nil), shapes[0].Encode()...)); err != nil {
		t.Fatal(err)
	}
}

// TestDecodedRefIsHashOfFields: for every block Decode accepts, the
// reference it computed over the body as sent is the hash of the fields'
// canonical encoding — what store's snapshot reassembly relies on.
func TestDecodedRefIsHashOfFields(t *testing.T) {
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seq uint64, labels []string, data [][]byte, nPreds uint8) bool {
		preds := make([]Ref, nPreds)
		for i := range preds {
			preds[i] = Ref{byte(i), byte(seq)}
		}
		reqs := make([]Request, min(len(labels), len(data)))
		for i := range reqs {
			reqs[i] = Request{Label: types.Label(labels[i]), Data: data[i]}
		}
		b := New(1, seq, preds, reqs)
		if err := b.Seal(signers[1]); err != nil {
			return false
		}
		dec, err := Decode(append([]byte(nil), b.Encode()...))
		return err == nil && dec.Ref() == b.Ref() && Ref(crypto.Hash(signingBytes(dec))) == dec.Ref()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeAllocs: what Decode allocates does not grow with the request
// count — the block, its request table, one string of labels — and nothing
// is allocated per request or per payload byte.
func TestDecodeAllocs(t *testing.T) {
	_, signers, err := crypto.LocalRoster(4)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(r int) float64 {
		reqs := make([]Request, r)
		for i := range reqs {
			reqs[i] = Request{Label: types.Label(fmt.Sprintf("pay/%d", i)), Data: make([]byte, 256)}
		}
		b := New(0, 1, []Ref{{1}, {2}}, reqs)
		if err := b.Seal(signers[0]); err != nil {
			t.Fatal(err)
		}
		frame := b.Encode()
		return testing.AllocsPerRun(100, func() {
			if _, err := Decode(frame); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(256)
	if one != many || one > 3 {
		t.Fatalf("Decode allocates %v times for 1 request, %v for 256; want the same, at most 3", one, many)
	}
}

// TestSealedEncodeZeroAllocs pins the whole point of the cache: reading
// a sealed block's encoding allocates nothing. BenchmarkEncodeOnce
// reports the same number for a reader; this is the gate — plain
// `go test` fails immediately if the cache regresses.
func TestSealedEncodeZeroAllocs(t *testing.T) {
	_, shapes := encodeOnceFixtures(t)
	b := shapes[3]
	if got := testing.AllocsPerRun(100, func() {
		if len(b.Encode()) == 0 {
			t.Fatal("empty encoding")
		}
		if b.EncodedSize() == 0 {
			t.Fatal("zero size")
		}
	}); got != 0 {
		t.Fatalf("sealed Encode/EncodedSize allocate %v per run, want 0", got)
	}
}

// TestUnsealedEncodeFresh: before Seal, Encode serializes the live
// fields on every call and caches nothing (the fields may still change).
func TestUnsealedEncodeFresh(t *testing.T) {
	b := New(1, 3, nil, []Request{{Label: "x", Data: []byte{1}}})
	e1 := b.Encode()
	b.Requests[0].Data[0] = 2
	e2 := b.Encode()
	if bytes.Equal(e1, e2) {
		t.Fatal("unsealed Encode returned stale bytes after a field change")
	}
	if b.EncodedSize() != len(e2) {
		t.Fatal("unsealed EncodedSize mismatch")
	}
}
