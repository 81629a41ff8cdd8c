// Package wire implements the canonical, deterministic binary encoding used
// throughout the block DAG framework.
//
// Determinism matters: a block's reference ref(B) is a cryptographic hash
// over the encoding of its fields (paper Definition 3.1), and the message
// total order <M (paper Section 2) is defined over encoded messages. Two
// encoders given the same logical value must therefore produce identical
// bytes. The format is a simple length-prefixed concatenation:
//
//   - fixed-width integers are big endian,
//   - variable-length byte strings are prefixed with a uvarint length,
//   - sequences are prefixed with a uvarint element count.
//
// The package also provides length-prefixed framing for stream transports.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
)

// Encoding errors returned by Reader and the framing helpers.
var (
	// ErrTruncated reports that the input ended before a complete value
	// could be decoded.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrTrailing reports that decoding finished but input bytes remain.
	ErrTrailing = errors.New("wire: trailing bytes after value")
	// ErrTooLarge reports a length prefix exceeding the configured or
	// implicit maximum, guarding against hostile allocations.
	ErrTooLarge = errors.New("wire: length exceeds limit")
	// ErrNonMinimal reports a varint written in more bytes than its value
	// needs: what is hashed or signed as it was sent must be what its
	// decoded fields re-encode to.
	ErrNonMinimal = errors.New("wire: non-minimal varint")
)

// MaxFrame is the largest frame the stream framing helpers accept. It
// bounds memory allocated on behalf of a remote peer.
const MaxFrame = 16 << 20 // 16 MiB

// maxValue bounds a single length-prefixed value inside an encoding. A
// value can never legitimately exceed the frame that carries it.
const maxValue = MaxFrame

// Writer accumulates a canonical encoding. The zero value is ready to use.
type Writer struct {
	buf []byte
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// Bytes returns the encoded bytes accumulated so far. The returned slice
// aliases the Writer's internal buffer; callers must not retain it across
// further writes.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes encoded so far.
func (w *Writer) Len() int { return len(w.buf) }

// Truncate discards all but the first n encoded bytes, keeping the buffer's
// capacity: a Writer reused across encodings allocates only to grow.
func (w *Writer) Truncate(n int) { w.buf = w.buf[:n] }

// Byte appends a single raw byte.
func (w *Writer) Byte(b byte) { w.buf = append(w.buf, b) }

// Bool appends a boolean as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.Byte(1)
		return
	}
	w.Byte(0)
}

// Uint16 appends a big-endian 16-bit integer.
func (w *Writer) Uint16(v uint16) {
	w.buf = binary.BigEndian.AppendUint16(w.buf, v)
}

// Uint32 appends a big-endian 32-bit integer.
func (w *Writer) Uint32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// Uint64 appends a big-endian 64-bit integer.
func (w *Writer) Uint64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// Uvarint appends a varint-encoded unsigned integer.
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Bytes32 appends a fixed 32-byte value with no length prefix.
func (w *Writer) Bytes32(v [32]byte) { w.buf = append(w.buf, v[:]...) }

// UvarintLen returns the number of bytes Uvarint writes for v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// VarBytesLen returns the encoded size of an n-byte value written by
// VarBytes or String: the uvarint length prefix plus the bytes.
func VarBytesLen(n int) int { return UvarintLen(uint64(n)) + n }

// VarBytes appends a uvarint length prefix followed by the bytes.
func (w *Writer) VarBytes(b []byte) {
	w.Uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a string with a uvarint length prefix.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes a canonical encoding. Errors are sticky: after the first
// failure every accessor returns the zero value and Err reports the cause,
// so call sites can decode a full struct and check the error once (per the
// "handle errors once" guideline).
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf. The Reader does not copy buf;
// decoded byte slices are copied out so the caller may reuse buf afterward
// — except those returned by View and VarBytesView, which alias it.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first decoding error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Close verifies the input was fully consumed and returns the first error
// encountered during decoding, ErrTrailing if bytes remain, or nil.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf)-r.off)
	}
	return nil
}

func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.Remaining() < n {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// Byte decodes a single raw byte.
func (r *Reader) Byte() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool decodes a boolean encoded as one byte. Any value other than 0 or 1
// is a decoding error, keeping the encoding canonical.
func (r *Reader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("wire: non-canonical bool"))
		return false
	}
}

// Uint16 decodes a big-endian 16-bit integer.
func (r *Reader) Uint16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

// Uint64 decodes a big-endian 64-bit integer.
func (r *Reader) Uint64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// Uvarint decodes a varint-encoded unsigned integer, in the one encoding
// Writer.Uvarint produces: a padded one (0 as 0x80 0x00) is ErrNonMinimal.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail(ErrTruncated)
		return 0
	}
	if n > 1 && r.buf[r.off+n-1] == 0 {
		r.fail(ErrNonMinimal)
		return 0
	}
	r.off += n
	return v
}

// View decodes n raw bytes without copying: a sub-slice of the Reader's
// input, capped like VarBytesView's.
func (r *Reader) View(n int) []byte {
	b := r.take(n)
	return b[:len(b):len(b)]
}

// Bytes32 decodes a fixed 32-byte value.
func (r *Reader) Bytes32() (v [32]byte) {
	copy(v[:], r.take(32))
	return v
}

// VarBytes decodes a uvarint-length-prefixed byte string into a fresh
// slice. A zero-length value decodes to nil so that encode/decode round
// trips preserve reflect.DeepEqual equality of nil slices.
func (r *Reader) VarBytes() []byte { return append([]byte(nil), r.VarBytesView()...) }

// VarBytesView decodes like VarBytes without copying: the result is a
// sub-slice of the Reader's input, capped at its own length so that an
// append cannot reach the bytes behind it. For input that is never written
// again, such as an immutable protocol payload.
func (r *Reader) VarBytesView() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxValue {
		r.fail(ErrTooLarge)
		return nil
	}
	if n == 0 {
		return nil
	}
	return r.View(int(n))
}

// String decodes a uvarint-length-prefixed string.
func (r *Reader) String() string { return string(r.VarBytesView()) }

// Count decodes a uvarint sequence-length prefix and validates it against
// both limit and the remaining input (each element occupies at least one
// byte), preventing hostile preallocation.
func (r *Reader) Count(limit int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(limit) || n > uint64(r.Remaining()) {
		r.fail(ErrTooLarge)
		return 0
	}
	return int(n)
}

// WriteFrame writes a 4-byte big-endian length prefix followed by payload,
// in one Write: on a socket that is one system call, and with TCP_NODELAY
// one segment where the header alone used to travel ahead of its payload.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, len(payload))
	}
	frame := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(frame, uint32(len(payload)))
	copy(frame[4:], payload)
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// AppendTagged appends to dst the frame WriteFrame writes for tag followed by
// body, which the caller need not build. len(body) must be below MaxFrame.
func AppendTagged(dst []byte, tag byte, body []byte) []byte {
	dst = binary.BigEndian.AppendUint32(slices.Grow(dst, 5+len(body)), uint32(1+len(body)))
	return append(append(dst, tag), body...)
}

// ReadFrame reads one length-prefixed frame written by WriteFrame. It
// returns io.EOF unwrapped when the stream ends cleanly before a header.
// Header and payload are read separately, so a caller reading frame after
// frame from a socket should hand in a bufio.Reader.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameLimit(r, MaxFrame)
}

// ReadFrameLimit is ReadFrame for a reader that knows how large a frame
// can legitimately be at this point of its protocol: a header claiming
// more than limit bytes fails with ErrTooLarge before anything is
// allocated or any payload byte is awaited (tcpnet's pre-auth handshake).
func ReadFrameLimit(r io.Reader, limit int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(min(limit, MaxFrame)) {
		return nil, fmt.Errorf("%w: frame of %d bytes", ErrTooLarge, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: read frame payload: %w", err)
	}
	return payload, nil
}
