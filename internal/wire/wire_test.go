package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestRoundTripScalars(t *testing.T) {
	w := NewWriter(0)
	w.Byte(0xab)
	w.Bool(true)
	w.Bool(false)
	w.Uint16(0xbeef)
	w.Uint32(0xdeadbeef)
	w.Uint64(0x0123456789abcdef)
	w.Uvarint(300)
	w.String("hello")
	w.VarBytes([]byte{1, 2, 3})
	var fixed [32]byte
	fixed[0], fixed[31] = 0x11, 0x99
	w.Bytes32(fixed)

	r := NewReader(w.Bytes())
	if got := r.Byte(); got != 0xab {
		t.Errorf("Byte = %#x, want 0xab", got)
	}
	if !r.Bool() || r.Bool() {
		t.Errorf("Bool round trip failed")
	}
	if got := r.Uint16(); got != 0xbeef {
		t.Errorf("Uint16 = %#x", got)
	}
	if got := binary.BigEndian.Uint32(r.View(4)); got != 0xdeadbeef {
		t.Errorf("Uint32 = %#x", got)
	}
	if got := r.Uint64(); got != 0x0123456789abcdef {
		t.Errorf("Uint64 = %#x", got)
	}
	if got := r.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if got := r.String(); got != "hello" {
		t.Errorf("String = %q", got)
	}
	if got := r.VarBytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("VarBytes = %v", got)
	}
	if got := r.Bytes32(); got != fixed {
		t.Errorf("Bytes32 = %v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(a uint64, b uint16, s string, p []byte) bool {
		w := NewWriter(0)
		w.Uint64(a)
		w.Uint16(b)
		w.String(s)
		w.VarBytes(p)
		r := NewReader(w.Bytes())
		ga, gb, gs, gp := r.Uint64(), r.Uint16(), r.String(), r.VarBytes()
		if err := r.Close(); err != nil {
			return false
		}
		return ga == a && gb == b && gs == s && bytes.Equal(gp, p)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncodingIsDeterministic(t *testing.T) {
	enc := func() []byte {
		w := NewWriter(0)
		w.Uint64(42)
		w.String("label")
		w.VarBytes([]byte("payload"))
		return append([]byte(nil), w.Bytes()...)
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("two encodings of the same value differ")
	}
}

func TestTruncatedInput(t *testing.T) {
	w := NewWriter(0)
	w.Uint64(7)
	full := w.Bytes()
	for cut := 0; cut < len(full); cut++ {
		r := NewReader(full[:cut])
		r.Uint64()
		if err := r.Close(); !errors.Is(err, ErrTruncated) {
			t.Errorf("cut=%d: Close = %v, want ErrTruncated", cut, err)
		}
	}
}

func TestStickyError(t *testing.T) {
	r := NewReader([]byte{1})
	r.Uint64() // fails: truncated
	if got := r.Byte(); got != 0 {
		t.Errorf("Byte after error = %v, want 0", got)
	}
	if !errors.Is(r.Err(), ErrTruncated) {
		t.Errorf("Err = %v, want ErrTruncated", r.Err())
	}
}

func TestTrailingBytes(t *testing.T) {
	r := NewReader([]byte{0, 0})
	r.Byte()
	if err := r.Close(); !errors.Is(err, ErrTrailing) {
		t.Errorf("Close = %v, want ErrTrailing", err)
	}
}

func TestNonCanonicalBool(t *testing.T) {
	r := NewReader([]byte{2})
	r.Bool()
	if r.Err() == nil {
		t.Fatal("decoding bool byte 2 succeeded, want error")
	}
}

// TestNonMinimalUvarint: one value, one encoding. A padded varint — in a
// length prefix, a count or on its own — is refused, so bytes that decode
// are the bytes the decoded fields re-encode to.
func TestNonMinimalUvarint(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<64 - 1} {
		w := NewWriter(0)
		w.Uvarint(v)
		if got := UvarintLen(v); got != w.Len() {
			t.Fatalf("UvarintLen(%d) = %d, encoding takes %d", v, got, w.Len())
		}
		r := NewReader(w.Bytes())
		if got := r.Uvarint(); got != v || r.Close() != nil {
			t.Fatalf("minimal %d decoded as %d, err %v", v, got, r.Err())
		}
		if w.Len() == 10 {
			continue // no room to pad: an eleventh byte overflows
		}
		enc := w.Bytes()
		padded := append(append([]byte(nil), enc[:len(enc)-1]...), enc[len(enc)-1]|0x80, 0x00)
		r = NewReader(padded)
		if got := r.Uvarint(); got != 0 || !errors.Is(r.Err(), ErrNonMinimal) || r.Remaining() != len(padded) {
			t.Fatalf("padded %d decoded as %d, err %v", v, got, r.Err())
		}
	}
	for name, read := range map[string]func(*Reader){
		"VarBytes":     func(r *Reader) { r.VarBytes() },
		"VarBytesView": func(r *Reader) { r.VarBytesView() },
		"String":       func(r *Reader) { _ = r.String() },
		"Count":        func(r *Reader) { r.Count(8) },
	} {
		r := NewReader([]byte{0x82, 0x00, 'a', 'b'})
		if read(r); !errors.Is(r.Err(), ErrNonMinimal) {
			t.Fatalf("%s took a padded length: err = %v", name, r.Err())
		}
	}
}

func TestVarBytesHostileLength(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(1 << 40) // absurd length, no data
	r := NewReader(w.Bytes())
	r.VarBytes()
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Errorf("Err = %v, want ErrTooLarge", r.Err())
	}
}

func TestCountHostileLength(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(1000)
	r := NewReader(w.Bytes())
	r.Count(1 << 30) // limit generous, but only 0 bytes remain
	if !errors.Is(r.Err(), ErrTooLarge) {
		t.Errorf("Err = %v, want ErrTooLarge", r.Err())
	}
}

func TestCountWithinLimit(t *testing.T) {
	w := NewWriter(0)
	w.Uvarint(3)
	w.Byte(1)
	w.Byte(2)
	w.Byte(3)
	r := NewReader(w.Bytes())
	if n := r.Count(10); n != 3 {
		t.Errorf("Count = %d, want 3", n)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 1000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d = %v, want %v", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("ReadFrame at end = %v, want io.EOF", err)
	}
}

// TestReadFrameLimit: a frame within the caller's cap reads as usual; a
// header over it is refused on the header — the payload behind it is
// never awaited — and a cap above MaxFrame buys nothing.
func TestReadFrameLimit(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, bytes.Repeat([]byte("z"), 64)); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadFrameLimit(bytes.NewReader(buf.Bytes()), 64); err != nil || len(got) != 64 {
		t.Fatalf("frame at the cap: %d bytes, err %v", len(got), err)
	}
	// Header only: with the payload missing, anything but ErrTooLarge
	// means the reader went on to wait for it.
	if _, err := ReadFrameLimit(bytes.NewReader(buf.Bytes()[:4]), 63); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("frame over the cap: %v, want ErrTooLarge", err)
	}
	huge := []byte{0x01, 0x00, 0x00, 0x01} // MaxFrame + 1
	if _, err := ReadFrameLimit(bytes.NewReader(huge), 1<<30); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("frame over MaxFrame under a larger cap: %v, want ErrTooLarge", err)
	}
}

// writeCounter counts the Write calls that reach it.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameIsOneWrite: header and payload leave in a single Write —
// on an unbuffered socket each Write is a system call and, with
// TCP_NODELAY, a segment of its own.
func TestWriteFrameIsOneWrite(t *testing.T) {
	for _, size := range []int{0, 1, 300, 64 << 10} {
		var w writeCounter
		payload := bytes.Repeat([]byte{0xab}, size)
		if err := WriteFrame(&w, payload); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Fatalf("frame of %d bytes took %d writes, want 1", size, w.writes)
		}
		if got, err := ReadFrame(&w.Buffer); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("frame of %d bytes read back as %d bytes, %v", size, len(got), err)
		}
	}
}

// TestAppendTaggedIsWriteFrame: byte for byte the frame WriteFrame writes for
// tag and body concatenated.
func TestAppendTaggedIsWriteFrame(t *testing.T) {
	var want bytes.Buffer
	var got []byte
	for _, size := range []int{0, 1, 300, 64 << 10} {
		body := bytes.Repeat([]byte{0xcd}, size)
		if err := WriteFrame(&want, append([]byte{9}, body...)); err != nil {
			t.Fatal(err)
		}
		got = AppendTagged(got, 9, body)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatal("AppendTagged differs from WriteFrame's frame")
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrTooLarge) {
		t.Errorf("ReadFrame = %v, want ErrTooLarge", err)
	}
}

func TestNilVarBytesRoundTrip(t *testing.T) {
	w := NewWriter(0)
	w.VarBytes(nil)
	w.VarBytes([]byte{})
	r := NewReader(w.Bytes())
	if got := r.VarBytes(); got != nil {
		t.Errorf("nil VarBytes decoded to %v", got)
	}
	if got := r.VarBytes(); got != nil {
		t.Errorf("empty VarBytes decoded to %v", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestVarBytesView: the view decodes what VarBytes decodes — including nil
// for an empty value and the same errors — as a sub-slice of the input whose
// capacity stops at its own end, and VarBytesLen is the exact encoded size
// on both sides of every uvarint width boundary.
func TestVarBytesView(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 16383, 16384, 1 << 21} {
		value := bytes.Repeat([]byte{0xab}, n)
		w := NewWriter(0)
		w.VarBytes(value)
		w.Byte(0xcd)
		enc := w.Bytes()
		if got := VarBytesLen(n); got != len(enc)-1 {
			t.Fatalf("VarBytesLen(%d) = %d, encoding takes %d", n, got, len(enc)-1)
		}
		r := NewReader(enc)
		view := r.VarBytesView()
		if !bytes.Equal(view, value) || (n == 0) != (view == nil) {
			t.Fatalf("n=%d: view decoded %d bytes", n, len(view))
		}
		if r.Byte() != 0xcd || r.Close() != nil {
			t.Fatalf("n=%d: view left the reader misplaced", n)
		}
		if n == 0 {
			continue
		}
		if &view[0] != &enc[len(enc)-1-n] || cap(view) != n {
			t.Fatalf("n=%d: view is not a capped sub-slice of the input (cap %d)", n, cap(view))
		}
		if copied := NewReader(enc).VarBytes(); &copied[0] == &view[0] {
			t.Fatalf("n=%d: VarBytes aliases the input", n)
		}
	}
	r := NewReader([]byte{5, 1, 2})
	if r.VarBytesView() != nil || !errors.Is(r.Err(), ErrTruncated) {
		t.Fatalf("truncated view: err = %v", r.Err())
	}
}
