package tcpnet

import (
	"bytes"
	"net"
	"testing"
	"time"

	"blockdag/internal/peerscore"
	"blockdag/internal/roster"
	"blockdag/internal/transport"
	"blockdag/internal/wire"
)

// scriptedConn is the stranger's end of an inbound connection: it plays a
// fixed byte stream to the listener, swallows whatever the listener answers,
// and remembers the largest buffer the listener ever read into.
type scriptedConn struct {
	in      *bytes.Reader
	maxRead int
}

func (c *scriptedConn) Read(p []byte) (int, error) {
	c.maxRead = max(c.maxRead, len(p))
	return c.in.Read(p)
}
func (c *scriptedConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *scriptedConn) Close() error                     { return nil }
func (c *scriptedConn) LocalAddr() net.Addr              { return nil }
func (c *scriptedConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzHandshake plays arbitrary bytes at the pre-auth surface of an
// authenticated listener — the identification frame and the proof frame,
// headers included. No stream can carry a valid proof (it signs a nonce the
// listener draws afresh), so whatever the bytes: the reader returns without
// panicking, reads into no buffer larger than the pre-auth frame cap, hands
// nothing to an endpoint, and leaves the scorer untouched — the identity in
// a hello is a claim, and claims charge nobody.
func FuzzHandshake(f *testing.F) {
	fx, err := roster.Dev(3)
	if err != nil {
		f.Fatal(err)
	}
	id, err := fx.Identity(0)
	if err != nil {
		f.Fatal(err)
	}
	scores := peerscore.New()
	delivered := &sink{}
	tr, err := Listen(Config{
		Self:       0,
		ListenAddr: "127.0.0.1:0",
		Endpoints:  gossipEndpoints(delivered),
		Handlers:   map[transport.Channel]transport.Handler{transport.ChanSync: echoHandler{}},
		Auth:       id.Auth(),
		Scores:     scores,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = tr.Close() })

	// Seeds: a well-formed hello of each kind claiming member 1, followed by
	// a well-formed proof frame with a signature that cannot verify.
	for _, kind := range []byte{kindStream, kindCall} {
		hello := wire.NewWriter(16 + transport.NonceSize)
		hello.Uint16(transport.Version)
		hello.Uint16(1)
		hello.Byte(kind)
		if kind == kindCall {
			hello.Byte(byte(transport.ChanSync))
		}
		hello.VarBytes(make([]byte, transport.NonceSize))
		proof := wire.NewWriter(80)
		proof.Byte(tagAuthProof)
		proof.VarBytes(make([]byte, 64))
		var stream bytes.Buffer
		_ = wire.WriteFrame(&stream, hello.Bytes())
		_ = wire.WriteFrame(&stream, proof.Bytes())
		f.Add(stream.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0x00, 0x00}) // a header claiming wire.MaxFrame

	f.Fuzz(func(t *testing.T, stream []byte) {
		conn := &scriptedConn{in: bytes.NewReader(stream)}
		tr.wg.Add(1)
		tr.runReader(conn)
		if conn.maxRead > maxHandshakeFrame {
			t.Fatalf("listener read into a %d-byte buffer before authentication, cap %d", conn.maxRead, maxHandshakeFrame)
		}
		if delivered.count() != 0 {
			t.Fatal("unauthenticated bytes reached an endpoint")
		}
		if stats := scores.Snapshot(); len(stats) != 0 {
			t.Fatalf("unauthenticated bytes changed the scorer: %+v", stats)
		}
	})
}
