package tcpnet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
	"unsafe"

	"blockdag/internal/peerscore"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// The tests in this file pin the per-peer send queue: its memory follows the
// backlog, Send blocks at the bound, a frame is queued as the caller's slice
// and leaves as the bytes it always left as, and what a peer missed while it
// was down arrives when it is back. They wait on events — an arrival, a
// return, a counter — with a deadline only to fail by.

const patience = 10 * time.Second

// arrivals is an endpoint that hands every delivery to the test.
type arrivals chan string

func (a arrivals) Deliver(_ types.ServerID, payload []byte) { a <- string(payload) }

func (a arrivals) next(t *testing.T) string {
	t.Helper()
	select {
	case got := <-a:
		return got
	case <-time.After(patience):
		t.Fatal("no delivery")
		return ""
	}
}

// freeAddr returns a loopback address nothing listens on, and a fair bet
// for a later Listen.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// sender returns a transport with one peer, 1, at addr.
func sender(t *testing.T, addr string, cfg Config) (*Transport, *peer) {
	t.Helper()
	cfg.ListenAddr = "127.0.0.1:0"
	cfg.Endpoints = gossipEndpoints(&sink{})
	tr, err := Listen(withAuth(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tr.Close() })
	if err := tr.Connect(1, addr); err != nil {
		t.Fatal(err)
	}
	return tr, tr.peers[1]
}

func (p *peer) backlog() []frame {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frames
}

func (p *peer) size() (length, capacity int) {
	frames := p.backlog()
	return len(frames), cap(frames)
}

// hchan is what a channel of zero-size elements allocates, whatever its
// capacity: the runtime's header, 96 B on 64-bit (rounded up here).
const hchan = 128

// retained is what a peer keeps on the heap: itself, its two channels and
// the backing array of its frames (the payloads are the callers').
func (p *peer) retained() uintptr {
	_, capacity := p.size()
	return unsafe.Sizeof(*p) + 2*hchan + uintptr(capacity)*unsafe.Sizeof(frame{})
}

// TestBacklogFollowsThePeer is crash-recover's shape: a peer is down while 65
// frames are sent to it. The queue holds them — the callers' slices, not
// copies, in an array that grew to fit — and when the peer is back it gets
// every one, in order, at least once, unchanged; the senders' slices are
// untouched (the frame handed to Send is read-only from then on, for the
// transport too: the extension of interpret's TestPayloadsImmutable to the
// wire); and the queue lets the array go. Before, after and in between, a
// peer that keeps up costs under a kilobyte where the channel cost 96.
func TestBacklogFollowsThePeer(t *testing.T) {
	const backlog = 65
	addr := freeAddr(t)
	tr, p := sender(t, addr, Config{})
	if got := p.retained(); got >= 1<<10 {
		t.Fatalf("a peer with nothing queued retains %d B", got)
	}

	frames := make([][]byte, backlog)
	sums := make([][sha256.Size]byte, backlog)
	for i := range frames {
		frames[i] = bytes.Repeat([]byte{byte(i)}, 20000+i) // 1.3 MB in all: more than one write
		sums[i] = sha256.Sum256(frames[i])
		tr.Send(1, transport.ChanGossip, frames[i])
	}
	if length, _ := p.size(); length != backlog {
		t.Fatalf("queue holds %d frames with the peer down, want %d", length, backlog)
	}
	for i, f := range p.backlog() {
		if &f.payload[0] != &frames[i][0] {
			t.Fatalf("frame %d was copied into the queue", i)
		}
	}

	got := make(arrivals, 4*backlog)
	back, err := Listen(withAuth(t, Config{Self: 1, ListenAddr: addr, Endpoints: map[transport.Channel]transport.Endpoint{transport.ChanGossip: got}}))
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer back.Close()
	for want := 0; want < backlog; {
		switch first := got.next(t)[0]; {
		case int(first) == want:
			want++
		case int(first) > want:
			t.Fatalf("frame %d arrived before frame %d", first, want)
		} // below want: a retransmission
	}
	for i, f := range frames {
		if sha256.Sum256(f) != sums[i] {
			t.Fatalf("frame %d was written to after Send", i)
		}
	}
	// The sender pops after the write that delivered the last frame.
	waitFor(t, patience, func() bool { length, _ := p.size(); return length == 0 })
	if _, capacity := p.size(); capacity != 0 || p.retained() >= 1<<10 {
		t.Fatalf("drained queue keeps room for %d frames, %d B", capacity, p.retained())
	}

	// Connected and keeping up: still nothing to speak of.
	for i := 0; i < 24; i++ {
		tr.Send(1, transport.ChanGossip, []byte{0xee})
		if got.next(t) != "\xee" {
			t.Fatal("stray delivery")
		}
	}
	waitFor(t, patience, func() bool { length, _ := p.size(); return length == 0 })
	if got := p.retained(); got >= 1<<10 {
		t.Fatalf("a connected, idle peer retains %d B", got)
	}
}

// TestSendBlocksAtQueueSize: queueSize is a bound on the backlog. Send
// returns while there is room, blocks when there is none, and is released by
// a drain — the peer comes up — or, on a second transport, by Close.
func TestSendBlocksAtQueueSize(t *testing.T) {
	frame := func(i int) []byte { return binary.BigEndian.AppendUint16(nil, uint16(i)) }
	overflow := func(tr *Transport) chan struct{} {
		for i := 0; i < queueSize; i++ {
			tr.Send(1, transport.ChanGossip, frame(i))
		}
		returned := make(chan struct{})
		go func() {
			tr.Send(1, transport.ChanGossip, frame(queueSize))
			close(returned)
		}()
		select {
		case <-returned:
			t.Fatalf("Send number %d returned with the queue at its bound", queueSize+1)
		case <-time.After(50 * time.Millisecond): // it can only fail to fail
		}
		return returned
	}
	await := func(returned chan struct{}, why string) {
		t.Helper()
		select {
		case <-returned:
		case <-time.After(patience):
			t.Fatalf("Send still blocked after %s", why)
		}
	}

	addr := freeAddr(t)
	tr, p := sender(t, addr, Config{})
	returned := overflow(tr)
	if length, _ := p.size(); length != queueSize {
		t.Fatalf("queue holds %d frames, bound %d", length, queueSize)
	}
	got := make(arrivals, 4*queueSize)
	back, err := Listen(withAuth(t, Config{Self: 1, ListenAddr: addr, Endpoints: map[transport.Channel]transport.Endpoint{transport.ChanGossip: got}}))
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	defer back.Close()
	await(returned, "the peer drained the queue")
	for want := 0; want <= queueSize; {
		if got.next(t) == string(frame(want)) {
			want++
		}
	}

	closing, _ := sender(t, freeAddr(t), Config{})
	returned = overflow(closing)
	if err := closing.Close(); err != nil {
		t.Fatal(err)
	}
	await(returned, "Close")
}

// TestBanReleasesBacklog: what is queued for a peer when it is banned is
// discarded, counted, and its memory released — a backlog does not outlive
// the peer's standing.
func TestBanReleasesBacklog(t *testing.T) {
	const backlog = 100
	scores := peerscore.New()
	tr, p := sender(t, freeAddr(t), Config{Scores: scores})
	for i := 0; i < backlog; i++ {
		tr.Send(1, transport.ChanGossip, make([]byte, 300))
	}
	if length, _ := p.size(); length != backlog {
		t.Fatalf("queue holds %d frames, want %d", length, backlog)
	}
	scores.Ban(1)
	waitFor(t, patience, func() bool { return tr.Counts().Get(BanRejections) == backlog })
	if length, capacity := p.size(); length != 0 || capacity != 0 {
		t.Fatalf("after the ban the queue holds %d frames in room for %d", length, capacity)
	}
	tr.Send(1, transport.ChanGossip, []byte("late")) // refused at the door
	if length, _ := p.size(); length != 0 || tr.Counts().Get(BanRejections) != backlog+1 {
		t.Fatalf("a send to the banned peer queued %d frames, %d rejections counted", length, tr.Counts().Get(BanRejections))
	}
}

// TestStreamBytesUnchanged: queueing (channel, payload) and framing on the
// way out puts on the wire, byte for byte, what copying the channel byte in
// front of the payload and framing that did: after the handshake,
// one wire.WriteFrame of channel ‖ payload per Send — also for an empty
// payload, a run that left in one write, and frames queued behind a write in
// flight: the first payload is larger than the socket buffers of both ends,
// and the others are sent once the reader has seen part of it.
func TestStreamBytesUnchanged(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	payloads := [][]byte{bytes.Repeat([]byte("x"), wire.MaxFrame-1), []byte("block"), {}, []byte("a"), []byte("b"), []byte("c")}
	channels := []transport.Channel{transport.ChanGossip, transport.ChanGossip, transport.ChanSync, transport.ChanGossip, transport.ChanSync, transport.ChanGossip}
	var want bytes.Buffer
	for i, payload := range payloads {
		if err := wire.WriteFrame(&want, append([]byte{byte(channels[i])}, payload...)); err != nil {
			t.Fatal(err)
		}
	}

	tr, _ := sender(t, ln.Addr().String(), Config{})
	tr.Send(1, channels[0], payloads[0])
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The handshake, answered as server 1 would answer it.
	listener := &Transport{cfg: withAuth(t, Config{Self: 1, version: transport.Version})}
	if _, _, _, ok := listener.admit(conn); !ok {
		t.Fatal("handshake refused")
	}
	_ = conn.SetDeadline(time.Now().Add(patience))
	got := make([]byte, want.Len())
	if _, err := io.ReadFull(conn, got[:1<<20]); err != nil {
		t.Fatal(err)
	}
	for i, payload := range payloads[1:] {
		tr.Send(1, channels[i+1], payload)
	}
	if _, err := io.ReadFull(conn, got[1<<20:]); err != nil || !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("stream bytes differ from one WriteFrame(channel ‖ payload) per Send (read: %v)", err)
	}
}
