package protocol

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"blockdag/internal/types"
)

func TestMessageRoundTrip(t *testing.T) {
	m := Message{Label: "ℓ1", Sender: 1, Receiver: 2, Payload: []byte{0xca, 0xfe}}
	dec, err := DecodeMessage(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec.Label != m.Label || dec.Sender != m.Sender || dec.Receiver != m.Receiver ||
		!bytes.Equal(dec.Payload, m.Payload) {
		t.Fatalf("round trip: %+v != %+v", dec, m)
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(label string, s, r uint16, payload []byte) bool {
		m := Message{Label: types.Label(label), Sender: types.ServerID(s), Receiver: types.ServerID(r), Payload: payload}
		dec, err := DecodeMessage(m.Encode())
		if err != nil {
			return false
		}
		return Compare(m, dec) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMessageRejectsGarbage(t *testing.T) {
	if _, err := DecodeMessage([]byte{0xff, 0xff, 0xff}); err == nil {
		t.Fatal("decoded garbage")
	}
}

// TestCompareIsTotalOrder checks the <M requirements: antisymmetry,
// transitivity, and totality (trichotomy) on a generated message set.
func TestCompareIsTotalOrder(t *testing.T) {
	msgs := []Message{
		{Label: "a", Sender: 0, Receiver: 0},
		{Label: "a", Sender: 0, Receiver: 1},
		{Label: "a", Sender: 1, Receiver: 0, Payload: []byte{1}},
		{Label: "b", Sender: 0, Receiver: 0},
		{Label: "b", Sender: 0, Receiver: 0, Payload: []byte{0}},
		{Label: "", Sender: 9, Receiver: 9, Payload: []byte{9, 9}},
	}
	for _, a := range msgs {
		if Compare(a, a) != 0 {
			t.Fatalf("Compare(%v, %v) != 0", a, a)
		}
		for _, b := range msgs {
			ab, ba := Compare(a, b), Compare(b, a)
			if ab != -ba {
				t.Fatalf("antisymmetry violated for %v, %v", a, b)
			}
			if ab == 0 && !bytes.Equal(a.Encode(), b.Encode()) {
				t.Fatalf("distinct messages compare equal: %v, %v", a, b)
			}
			for _, c := range msgs {
				if ab <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
					t.Fatalf("transitivity violated for %v, %v, %v", a, b, c)
				}
			}
		}
	}
}

// TestCompareMatchesEncodingOrder pins Compare to its definition: the
// lexicographic order of the canonical encodings, exactly as the old
// bytes.Compare(a.Encode(), b.Encode()) implementation computed it. The
// case set forces every discriminating field and, crucially, lengths on
// both sides of 128 — where uvarint byte strings stop sorting
// numerically (uvarint(300) < uvarint(200) lexicographically), an
// artifact of <M the field-wise Compare must reproduce, not repair.
func TestCompareMatchesEncodingOrder(t *testing.T) {
	long := func(n int, fill byte) []byte { return bytes.Repeat([]byte{fill}, n) }
	msgs := []Message{
		{},
		{Label: "a"},
		{Label: "a", Sender: 1},
		{Label: "a", Receiver: 1},
		{Label: "a", Sender: 300, Receiver: 2},
		{Label: "ab", Payload: []byte{0}},
		{Label: "b", Payload: []byte{0, 0}},
		{Label: types.Label(long(127, 'x'))},
		{Label: types.Label(long(128, 'x'))},
		{Label: types.Label(long(200, 'x'))},
		{Label: types.Label(long(300, 'x'))}, // sorts before length 200
		{Label: "p", Payload: long(127, 1)},
		{Label: "p", Payload: long(128, 1)},
		{Label: "p", Payload: long(200, 1)},
		{Label: "p", Payload: long(300, 1)},
		{Label: "p", Payload: long(300, 2)},
	}
	oldCompare := func(a, b Message) int { return bytes.Compare(a.Encode(), b.Encode()) }
	for _, a := range msgs {
		for _, b := range msgs {
			if got, want := Compare(a, b), oldCompare(a, b); got != want {
				t.Errorf("Compare(%.8q…, %.8q…) = %d, want %d (encoding order)",
					a.Label, b.Label, got, want)
			}
		}
	}
	// And the property over random messages, catching anything the
	// hand-picked cases miss.
	f := func(la, lb string, sa, sb, ra, rb uint16, pa, pb []byte) bool {
		a := Message{Label: types.Label(la), Sender: types.ServerID(sa), Receiver: types.ServerID(ra), Payload: pa}
		b := Message{Label: types.Label(lb), Sender: types.ServerID(sb), Receiver: types.ServerID(rb), Payload: pb}
		return Compare(a, b) == oldCompare(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCompareDoesNotAllocate: the interpreter sorts every block's
// in-buffer with Compare — the whole point of the field-wise rewrite is
// that comparing must not serialize either operand.
func TestCompareDoesNotAllocate(t *testing.T) {
	a := Message{Label: "instance/long-label", Sender: 300, Receiver: 2, Payload: bytes.Repeat([]byte{7}, 256)}
	b := Message{Label: "instance/long-label", Sender: 300, Receiver: 2, Payload: bytes.Repeat([]byte{7}, 256)}
	b.Payload[255] = 8
	if got := testing.AllocsPerRun(100, func() {
		if Compare(a, b) >= 0 {
			t.Fatal("bad order")
		}
	}); got != 0 {
		t.Fatalf("Compare allocates %v times per run, want 0", got)
	}
}

// TestSortIsDeterministic: sorting any permutation yields the same order —
// the property Algorithm 2 line 10 relies on.
func TestSortIsDeterministic(t *testing.T) {
	base := []Message{
		{Label: "x", Sender: 2, Receiver: 1, Payload: []byte("m1")},
		{Label: "x", Sender: 0, Receiver: 1, Payload: []byte("m2")},
		{Label: "y", Sender: 1, Receiver: 1, Payload: []byte("m0")},
		{Label: "x", Sender: 1, Receiver: 1, Payload: []byte("m3")},
	}
	want := append([]Message(nil), base...)
	slices.SortFunc(want, Compare)
	// Try all 24 permutations via Heap's algorithm (small n).
	perm := append([]Message(nil), base...)
	var rec func(k int)
	rec = func(k int) {
		if k == 1 {
			got := append([]Message(nil), perm...)
			slices.SortFunc(got, Compare)
			for i := range got {
				if Compare(got[i], want[i]) != 0 {
					t.Fatalf("sort order depends on input permutation")
				}
			}
			return
		}
		for i := 0; i < k; i++ {
			rec(k - 1)
			if k%2 == 0 {
				perm[i], perm[k-1] = perm[k-1], perm[i]
			} else {
				perm[0], perm[k-1] = perm[k-1], perm[0]
			}
		}
	}
	rec(len(perm))
}

// TestFanOut: a broadcast is one record addressed to Everyone, and Expand
// spells it out as one message per server — each exactly once, receivers
// ascending, sharing the payload — leaving unicasts where they were.
func TestFanOut(t *testing.T) {
	cfg := Config{Self: 1, Label: "ℓ", N: 4, F: 1}
	payload := []byte("echo")
	m := FanOut(cfg, payload)
	if m.Sender != 1 || m.Receiver != Everyone || m.Label != "ℓ" || &m.Payload[0] != &payload[0] {
		t.Fatalf("FanOut = %+v, want one record to Everyone carrying the payload itself", m)
	}
	before, after := Unicast(cfg, 3, []byte("a")), Unicast(cfg, 0, []byte("b"))
	emitted := []Message{before, m, after}
	if got := Count(emitted, cfg.N); got != 6 {
		t.Fatalf("Count = %d, want 6", got)
	}
	msgs := Expand(emitted, cfg.N)
	if len(msgs) != 6 || cap(msgs) != 6 {
		t.Fatalf("Expand produced %d messages (cap %d), want exactly 6", len(msgs), cap(msgs))
	}
	if Compare(msgs[0], before) != 0 || Compare(msgs[5], after) != 0 {
		t.Fatalf("Expand moved the unicasts: %+v", msgs)
	}
	for i, got := range msgs[1:5] {
		if got.Sender != 1 || got.Label != "ℓ" || int(got.Receiver) != i || &got.Payload[0] != &payload[0] {
			t.Fatalf("expanded[%d] = %+v, want the payload to server %d", i, got, i)
		}
	}
	if emitted[1].Receiver != Everyone {
		t.Fatal("Expand wrote to its input")
	}
}

func TestUnicast(t *testing.T) {
	cfg := Config{Self: 3, Label: "ℓ", N: 4, F: 1}
	m := Unicast(cfg, 0, []byte("p"))
	if m.Sender != 3 || m.Receiver != 0 || m.Label != "ℓ" {
		t.Fatalf("Unicast = %+v", m)
	}
}

func TestQuorum(t *testing.T) {
	cfg := Config{N: 7, F: 2}
	if cfg.Quorum() != 5 {
		t.Fatalf("Quorum = %d, want 5", cfg.Quorum())
	}
}

// TestMessageEncodingCollisionFree: distinct messages (by any field) must
// have distinct encodings.
func TestMessageEncodingCollisionFree(t *testing.T) {
	f := func(l1, l2 string, s1, s2, r1, r2 uint16, p1, p2 []byte) bool {
		a := Message{Label: types.Label(l1), Sender: types.ServerID(s1), Receiver: types.ServerID(r1), Payload: p1}
		b := Message{Label: types.Label(l2), Sender: types.ServerID(s2), Receiver: types.ServerID(r2), Payload: p2}
		same := l1 == l2 && s1 == s2 && r1 == r2 && bytes.Equal(p1, p2)
		return bytes.Equal(a.Encode(), b.Encode()) == same
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
