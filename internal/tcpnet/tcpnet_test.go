package tcpnet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"blockdag/internal/roster"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// sink records deliveries thread-safely.
type sink struct {
	mu  sync.Mutex
	got []struct {
		from    types.ServerID
		payload string
	}
}

func (s *sink) Deliver(from types.ServerID, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.got = append(s.got, struct {
		from    types.ServerID
		payload string
	}{from, string(payload)})
}

func (s *sink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *sink) first() (types.ServerID, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.got) == 0 {
		return types.NilServer, ""
	}
	return s.got[0].from, s.got[0].payload
}

// gossipEndpoints wires a sink as the gossip-channel consumer.
func gossipEndpoints(s *sink) map[transport.Channel]transport.Endpoint {
	return map[transport.Channel]transport.Endpoint{transport.ChanGossip: s}
}

// devFixture is the roster every test transport authenticates against.
var devFixture = sync.OnceValues(func() (*roster.Fixture, error) { return roster.Dev(4) })

// withAuth gives cfg the dev fixture's authenticator for cfg.Self, unless
// it has one: every transport authenticates.
func withAuth(t testing.TB, cfg Config) Config {
	t.Helper()
	if cfg.Auth != nil {
		return cfg
	}
	fx, err := devFixture()
	if err != nil {
		t.Fatal(err)
	}
	id, err := fx.Identity(int(cfg.Self))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Auth = id.Auth()
	return cfg
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not met before timeout")
}

func TestSendReceive(t *testing.T) {
	sa, sb := &sink{}, &sink{}
	ta, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(sa)}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	tb, err := Listen(withAuth(t, Config{Self: 1, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(sb)}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()
	if err := ta.Connect(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := tb.Connect(0, ta.Addr()); err != nil {
		t.Fatal(err)
	}

	ta.Send(1, transport.ChanGossip, []byte("hello"))
	waitFor(t, 2*time.Second, func() bool { return sb.count() == 1 })
	from, payload := sb.first()
	if from != 0 || payload != "hello" {
		t.Fatalf("got (%v, %q)", from, payload)
	}

	tb.Send(0, transport.ChanGossip, []byte("world"))
	waitFor(t, 2*time.Second, func() bool { return sa.count() == 1 })
	from, payload = sa.first()
	if from != 1 || payload != "world" {
		t.Fatalf("got (%v, %q)", from, payload)
	}
}

// TestChannelDemux: payloads sent on different channels of one link reach
// their respective endpoints; a channel with no endpoint drops silently.
func TestChannelDemux(t *testing.T) {
	gossip, syncEp := &sink{}, &sink{}
	ta, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(&sink{})}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	tb, err := Listen(withAuth(t, Config{
		Self:       1,
		ListenAddr: "127.0.0.1:0",
		Endpoints: map[transport.Channel]transport.Endpoint{
			transport.ChanGossip: gossip,
			transport.ChanSync:   syncEp,
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()
	if err := ta.Connect(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}

	ta.Send(1, transport.ChanGossip, []byte("blocks"))
	ta.Send(1, transport.ChanSync, []byte("sync"))
	waitFor(t, 2*time.Second, func() bool { return gossip.count() == 1 && syncEp.count() == 1 })
	if _, p := gossip.first(); p != "blocks" {
		t.Fatalf("gossip endpoint got %q", p)
	}
	if _, p := syncEp.first(); p != "sync" {
		t.Fatalf("sync endpoint got %q", p)
	}
}

// TestRetransmitAcrossReconnect: sends queued before the peer exists are
// delivered once the peer comes up (Assumption 1 with a late receiver).
func TestRetransmitAcrossReconnect(t *testing.T) {
	sa := &sink{}
	ta, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(sa)}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()

	// Point the sender at an address while nothing is there.
	addr := freeAddr(t)
	if err := ta.Connect(1, addr); err != nil {
		t.Fatal(err)
	}
	ta.Send(1, transport.ChanGossip, []byte("early"))
	time.Sleep(100 * time.Millisecond) // let a few dials fail

	sb := &sink{}
	tb, err := Listen(withAuth(t, Config{Self: 1, ListenAddr: addr, Endpoints: gossipEndpoints(sb)}))
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer func() { _ = tb.Close() }()

	waitFor(t, 5*time.Second, func() bool { return sb.count() >= 1 })
	if _, payload := sb.first(); payload != "early" {
		t.Fatalf("payload = %q", payload)
	}
}

func TestLargeFrames(t *testing.T) {
	sb := &sink{}
	ta, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(&sink{})}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	tb, err := Listen(withAuth(t, Config{Self: 1, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(sb)}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()
	if err := ta.Connect(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("x"), 1<<20)
	ta.Send(1, transport.ChanGossip, big)
	waitFor(t, 5*time.Second, func() bool { return sb.count() == 1 })
	if _, payload := sb.first(); len(payload) != len(big) {
		t.Fatalf("payload length = %d", len(payload))
	}
}

func TestOrderingPerPeer(t *testing.T) {
	sb := &sink{}
	ta, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(&sink{})}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	tb, err := Listen(withAuth(t, Config{Self: 1, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(sb)}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()
	if err := ta.Connect(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}
	const msgs = 100
	for i := 0; i < msgs; i++ {
		ta.Send(1, transport.ChanGossip, []byte{byte(i)})
	}
	waitFor(t, 5*time.Second, func() bool { return sb.count() == msgs })
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for i, rec := range sb.got {
		if rec.payload[0] != byte(i) {
			t.Fatalf("message %d out of order", i)
		}
	}
}

func TestCloseIsIdempotentAndClean(t *testing.T) {
	ta, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(&sink{})}))
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Connect(1, "127.0.0.1:1"); err != nil { // nothing there
		t.Fatal(err)
	}
	ta.Send(1, transport.ChanGossip, []byte("doomed"))
	if err := ta.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Sends after close must not block or panic.
	ta.Send(1, transport.ChanGossip, []byte("after close"))
}

func TestConnectTwiceRejected(t *testing.T) {
	ta, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(&sink{})}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	if err := ta.Connect(1, "127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := ta.Connect(1, "127.0.0.1:2"); err == nil {
		t.Fatal("duplicate Connect accepted")
	}
}

// TestListenRequiresAuth: there is no unauthenticated transport — a
// config without an Authenticator is refused at Listen.
func TestListenRequiresAuth(t *testing.T) {
	tr, err := Listen(Config{Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(&sink{})})
	if err == nil {
		_ = tr.Close()
		t.Fatal("Listen accepted a config without Auth")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Listen(withAuth(t, Config{Self: 0, Endpoints: gossipEndpoints(&sink{})})); err == nil {
		t.Fatal("missing ListenAddr accepted")
	}
	if _, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0"})); err == nil {
		t.Fatal("missing Endpoints/Handlers accepted")
	}
	if _, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0",
		Endpoints: map[transport.Channel]transport.Endpoint{transport.Channel(9): &sink{}}})); err == nil {
		t.Fatal("invalid channel accepted")
	}
}

// TestVersionMismatchRejected: a peer speaking a different transport
// version is refused at the handshake — its payloads never reach an
// endpoint, the receiver counts a rejection, and a mismatched call gets
// transport.ErrVersionMismatch rather than silence.
func TestVersionMismatchRejected(t *testing.T) {
	sb := &sink{}
	tb, err := Listen(withAuth(t, Config{
		Self: 1, ListenAddr: "127.0.0.1:0",
		Endpoints: gossipEndpoints(sb),
		Handlers:  map[transport.Channel]transport.Handler{transport.ChanSync: echoHandler{}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()

	// Old (or future) binary: same code, different advertised version.
	ta, err := Listen(withAuth(t, Config{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Endpoints: gossipEndpoints(&sink{}),
		version:   transport.Version + 1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	if err := ta.Connect(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}

	ta.Send(1, transport.ChanGossip, []byte("from the future"))
	waitFor(t, 2*time.Second, func() bool { return tb.Counts().Get(Rejections) >= 1 })
	if sb.count() != 0 {
		t.Fatalf("mismatched-version payload delivered: %d", sb.count())
	}

	cs := newCallSink()
	ta.Call(1, transport.ChanSync, []byte("req"), cs)
	res := cs.wait(t, 2*time.Second)
	if !errors.Is(res.err, transport.ErrVersionMismatch) {
		t.Fatalf("call error = %v, want ErrVersionMismatch", res.err)
	}

	// A raw connection with a mismatched version must be closed without
	// any response for stream kind.
	conn, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	w := wire.NewWriter(5)
	w.Uint16(transport.Version + 7)
	w.Uint16(0)
	w.Byte(kindStream)
	if err := wire.WriteFrame(conn, w.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := wire.ReadFrame(conn); err == nil {
		t.Fatal("rejected connection produced a frame")
	}

	// A version-3 binary — whose hello carried an authentication flag
	// before its nonce — is told the version is wrong on a call
	// connection, not dropped as malformed.
	call, err := net.Dial("tcp", tb.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = call.Close() }()
	v3 := wire.NewWriter(8 + transport.NonceSize)
	v3.Uint16(3)
	v3.Uint16(0)
	v3.Byte(kindCall)
	v3.Byte(byte(transport.ChanSync))
	v3.Byte(1)
	v3.VarBytes(make([]byte, transport.NonceSize))
	if err := wire.WriteFrame(call, v3.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = call.SetReadDeadline(time.Now().Add(2 * time.Second))
	frame, err := wire.ReadFrame(call)
	if err != nil || len(frame) == 0 || frame[0] != tagError {
		t.Fatalf("version-3 call hello answered %q, %v; want an error frame", frame, err)
	}
	if err := decodeCallError(frame[1:]); !errors.Is(err, transport.ErrVersionMismatch) {
		t.Fatalf("version-3 call hello refused with %v, want ErrVersionMismatch", err)
	}
}

// echoHandler answers a call with three frames echoing the request, then
// a clean close.
type echoHandler struct{}

func (echoHandler) ServeCall(from types.ServerID, req []byte, st transport.ServerStream) {
	for i := 0; i < 3; i++ {
		if err := st.Send(append([]byte{byte('0' + i), ':'}, req...)); err != nil {
			return
		}
	}
	st.Close(nil)
}

// callResult is one terminated call's observation.
type callResult struct {
	frames []string
	err    error
}

// callSink collects a call's stream for assertions.
type callSink struct {
	mu     sync.Mutex
	frames []string
	done   chan callResult
}

func newCallSink() *callSink { return &callSink{done: make(chan callResult, 1)} }

func (c *callSink) OnFrame(frame []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frames = append(c.frames, string(frame))
}

func (c *callSink) OnDone(err error) {
	c.mu.Lock()
	frames := append([]string(nil), c.frames...)
	c.mu.Unlock()
	c.done <- callResult{frames: frames, err: err}
}

func (c *callSink) wait(t *testing.T, timeout time.Duration) callResult {
	t.Helper()
	select {
	case res := <-c.done:
		return res
	case <-time.After(timeout):
		t.Fatal("call did not terminate in time")
		return callResult{}
	}
}

// TestCallRoundTrip: request/response streaming over a dedicated
// connection, frames in order, clean termination.
func TestCallRoundTrip(t *testing.T) {
	ta, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(&sink{})}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	tb, err := Listen(withAuth(t, Config{
		Self: 1, ListenAddr: "127.0.0.1:0",
		Endpoints: gossipEndpoints(&sink{}),
		Handlers:  map[transport.Channel]transport.Handler{transport.ChanSync: echoHandler{}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()
	if err := ta.Connect(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}

	cs := newCallSink()
	ta.Call(1, transport.ChanSync, []byte("ping"), cs)
	res := cs.wait(t, 5*time.Second)
	if res.err != nil {
		t.Fatalf("call failed: %v", res.err)
	}
	want := []string{"0:ping", "1:ping", "2:ping"}
	if len(res.frames) != len(want) {
		t.Fatalf("frames = %q", res.frames)
	}
	for i, f := range res.frames {
		if f != want[i] {
			t.Fatalf("frame %d = %q, want %q", i, f, want[i])
		}
	}
}

// TestCallNoHandler: calling a channel the peer does not serve fails
// explicitly with ErrNoHandler.
func TestCallNoHandler(t *testing.T) {
	ta, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(&sink{})}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	tb, err := Listen(withAuth(t, Config{Self: 1, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(&sink{})}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()
	if err := ta.Connect(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}
	cs := newCallSink()
	ta.Call(1, transport.ChanSync, []byte("req"), cs)
	if res := cs.wait(t, 5*time.Second); !errors.Is(res.err, transport.ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", res.err)
	}
}

// TestCallUnknownPeer: calling a peer never Connect-ed fails immediately.
func TestCallUnknownPeer(t *testing.T) {
	ta, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(&sink{})}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()
	cs := newCallSink()
	ta.Call(7, transport.ChanSync, []byte("req"), cs)
	if res := cs.wait(t, 2*time.Second); !errors.Is(res.err, transport.ErrUnreachable) {
		t.Fatalf("err = %v, want ErrUnreachable", res.err)
	}
}

// stallHandler sends `frames` frames then blocks until released — the
// server side of a mid-stream death.
type stallHandler struct {
	frames  int
	stalled chan struct{}
	release chan struct{}
}

func (h *stallHandler) ServeCall(from types.ServerID, req []byte, st transport.ServerStream) {
	for i := 0; i < h.frames; i++ {
		if err := st.Send([]byte{byte(i)}); err != nil {
			return
		}
	}
	close(h.stalled)
	<-h.release
}

// TestCallMidStreamDeathThenRetry: the serving peer dies mid-stream; the
// client observes an explicit stream error (not a hang), and a retry
// against the restarted peer completes — the reconnect discipline the
// sync service builds its resume-or-fallback logic on.
func TestCallMidStreamDeathThenRetry(t *testing.T) {
	ta, err := Listen(withAuth(t, Config{
		Self: 0, ListenAddr: "127.0.0.1:0",
		Endpoints: gossipEndpoints(&sink{}),
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ta.Close() }()

	h := &stallHandler{frames: 2, stalled: make(chan struct{}), release: make(chan struct{})}
	tb, err := Listen(withAuth(t, Config{
		Self: 1, ListenAddr: "127.0.0.1:0",
		Endpoints: gossipEndpoints(&sink{}),
		Handlers:  map[transport.Channel]transport.Handler{transport.ChanSync: h},
	}))
	if err != nil {
		t.Fatal(err)
	}
	addr := tb.Addr()
	if err := ta.Connect(1, addr); err != nil {
		t.Fatal(err)
	}

	cs := newCallSink()
	ta.Call(1, transport.ChanSync, []byte("req"), cs)
	<-h.stalled
	// The peer dies while the handler is still mid-stream: Close tears
	// the connections down first, so the client observes an abrupt end,
	// then the handler is released so Close can reap its goroutine.
	closeDone := make(chan error, 1)
	go func() { closeDone <- tb.Close() }()
	res := cs.wait(t, 5*time.Second)
	close(h.release)
	if err := <-closeDone; err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.err, transport.ErrStreamLost) {
		t.Fatalf("err = %v, want ErrStreamLost", res.err)
	}
	if len(res.frames) != 2 {
		t.Fatalf("frames before death = %d, want 2", len(res.frames))
	}

	// The peer restarts on the same address; a retried call completes.
	tb2, err := Listen(withAuth(t, Config{
		Self: 1, ListenAddr: addr,
		Endpoints: gossipEndpoints(&sink{}),
		Handlers:  map[transport.Channel]transport.Handler{transport.ChanSync: echoHandler{}},
	}))
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer func() { _ = tb2.Close() }()

	cs2 := newCallSink()
	ta.Call(1, transport.ChanSync, []byte("again"), cs2)
	res2 := cs2.wait(t, 5*time.Second)
	if res2.err != nil {
		t.Fatalf("retry failed: %v", res2.err)
	}
	if len(res2.frames) != 3 {
		t.Fatalf("retry frames = %q", res2.frames)
	}
}

// TestCallCancel: canceling an in-flight call releases its goroutine and
// connection without wedging the transport.
func TestCallCancel(t *testing.T) {
	h := &stallHandler{frames: 1, stalled: make(chan struct{}), release: make(chan struct{})}
	tb, err := Listen(withAuth(t, Config{
		Self: 1, ListenAddr: "127.0.0.1:0",
		Endpoints: gossipEndpoints(&sink{}),
		Handlers:  map[transport.Channel]transport.Handler{transport.ChanSync: h},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tb.Close() }()
	// LIFO: release the stalled handler before tb.Close waits on its
	// goroutine.
	defer close(h.release)
	ta, err := Listen(withAuth(t, Config{Self: 0, ListenAddr: "127.0.0.1:0", Endpoints: gossipEndpoints(&sink{})}))
	if err != nil {
		t.Fatal(err)
	}
	if err := ta.Connect(1, tb.Addr()); err != nil {
		t.Fatal(err)
	}
	cs := newCallSink()
	cancel := ta.Call(1, transport.ChanSync, []byte("req"), cs)
	<-h.stalled
	cancel()
	// Close waits for all transport goroutines: it must return promptly
	// despite the canceled call.
	done := make(chan error, 1)
	go func() { done <- ta.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on a canceled call")
	}
}

// countingConn counts the Write calls that reach the connection: on a TCP
// socket each is a system call and, with TCP_NODELAY, a segment.
type countingConn struct {
	net.Conn
	writes int
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes++
	return c.Conn.Write(p)
}

// TestOneWritePerFrame: a frame leaves in exactly one Write — header, tag
// and payload together — and arrives intact at a peer reading the stream
// through a bufio.Reader, as serveStream and runCall do.
func TestOneWritePerFrame(t *testing.T) {
	local, remote := net.Pipe()
	defer local.Close()
	defer remote.Close()
	conn := &countingConn{Conn: local}
	frames := [][]byte{[]byte("a"), bytes.Repeat([]byte("block"), 100), make([]byte, 64<<10)}

	sent := make(chan error, 1)
	go func() {
		st := &connStream{conn: conn, ctx: context.Background()}
		var err error
		for _, frame := range frames {
			err = errors.Join(err, st.Send(frame))
		}
		st.Close(nil)
		sent <- err
	}()
	r := bufio.NewReader(remote)
	for i, want := range frames {
		got, err := wire.ReadFrame(r)
		if err != nil || len(got) == 0 || got[0] != tagData || !bytes.Equal(got[1:], want) {
			t.Fatalf("frame %d arrived as %d bytes, %v", i, len(got), err)
		}
	}
	if end, err := wire.ReadFrame(r); err != nil || !bytes.Equal(end, []byte{tagEnd}) {
		t.Fatalf("end frame arrived as %v, %v", end, err)
	}
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if want := len(frames) + 1; conn.writes != want {
		t.Fatalf("%d frames took %d writes", want, conn.writes)
	}
}
