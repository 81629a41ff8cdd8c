package block

import (
	"bytes"
	"testing"

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

// TestFrameMutationCannotCorruptBlock is the alias-safety contract: the
// frame Encode returns is shared and documented read-only, but a caller
// (or an attacker holding the buffer a block was decoded from) who
// scribbles on it corrupts only those bytes — never the block's logical
// identity. Fields, reference, and signature verification all come from
// memory that does not alias the frame.
func TestFrameMutationCannotCorruptBlock(t *testing.T) {
	roster, shapes := encodeOnceFixtures(t)
	for _, b := range shapes {
		data := append([]byte(nil), b.Encode()...)
		dec, err := Decode(data)
		if err != nil {
			t.Fatal(err)
		}
		ref, builder, seq := dec.Ref(), dec.Builder, dec.Seq
		preds := append([]Ref(nil), dec.Preds...)
		var reqs []Request
		for _, rq := range dec.Requests {
			reqs = append(reqs, Request{Label: rq.Label, Data: append([]byte(nil), rq.Data...)})
		}
		sig := append([]byte(nil), dec.Sig...)

		for i := range data { // clobber every byte of the decoded input
			data[i] ^= 0xff
		}
		enc := dec.Encode()
		for i := range enc { // and every byte of the returned frame
			enc[i] = 0
		}

		if dec.Ref() != ref || dec.Builder != builder || dec.Seq != seq {
			t.Fatalf("block %v: frame mutation corrupted identity", ref)
		}
		for i, p := range dec.Preds {
			if p != preds[i] {
				t.Fatalf("block %v: frame mutation corrupted pred %d", ref, i)
			}
		}
		for i, rq := range dec.Requests {
			if rq.Label != types.Label(reqs[i].Label) || !bytes.Equal(rq.Data, reqs[i].Data) {
				t.Fatalf("block %v: frame mutation corrupted request %d", ref, i)
			}
		}
		if !bytes.Equal(dec.Sig, sig) {
			t.Fatalf("block %v: frame mutation corrupted signature bytes", ref)
		}
		if !dec.VerifySignature(roster) {
			t.Fatalf("block %v: frame mutation broke signature verification", ref)
		}
	}
}

// TestAppendEncodeCopies: AppendEncode hands out a copy — mutating the
// result must not touch the cache, and existing dst content survives.
func TestAppendEncodeCopies(t *testing.T) {
	_, shapes := encodeOnceFixtures(t)
	b := shapes[3]
	dst := b.AppendEncode([]byte("prefix"))
	if !bytes.HasPrefix(dst, []byte("prefix")) || !bytes.Equal(dst[6:], b.Encode()) {
		t.Fatal("AppendEncode result malformed")
	}
	want := append([]byte(nil), b.Encode()...)
	for i := range dst {
		dst[i] ^= 0xff
	}
	if !bytes.Equal(b.Encode(), want) {
		t.Fatal("mutating AppendEncode output corrupted the cached frame")
	}
}

// TestSealedEncodeZeroAllocs pins the whole point of the cache: reading
// a sealed block's encoding allocates nothing. BenchmarkEncodeOnce
// reports the same number for a reader; this is the gate — plain
// `go test` fails immediately if the cache regresses.
func TestSealedEncodeZeroAllocs(t *testing.T) {
	_, shapes := encodeOnceFixtures(t)
	b := shapes[3]
	dst := make([]byte, 0, b.EncodedSize())
	if got := testing.AllocsPerRun(100, func() {
		if len(b.Encode()) == 0 {
			t.Fatal("empty encoding")
		}
		if b.EncodedSize() == 0 {
			t.Fatal("zero size")
		}
		dst = b.AppendEncode(dst[:0])
	}); got != 0 {
		t.Fatalf("sealed Encode/EncodedSize/AppendEncode allocate %v per run, want 0", got)
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
