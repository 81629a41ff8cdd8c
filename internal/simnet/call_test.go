package simnet

import (
	"errors"
	"testing"
	"time"

	"blockdag/internal/tcpnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// scriptHandler answers every call with the configured frames, then
// closes with closeErr.
type scriptHandler struct {
	frames   [][]byte
	closeErr error
	calls    int
	lastFrom types.ServerID
	lastReq  string
}

func (h *scriptHandler) ServeCall(from types.ServerID, req []byte, st transport.ServerStream) {
	h.calls++
	h.lastFrom = from
	h.lastReq = string(req)
	for _, f := range h.frames {
		if err := st.Send(f); err != nil {
			return
		}
	}
	st.Close(h.closeErr)
}

// collector is a test CallSink.
type collector struct {
	frames []string
	err    error
	done   bool
}

func (c *collector) OnFrame(frame []byte) { c.frames = append(c.frames, string(frame)) }
func (c *collector) OnDone(err error)     { c.err, c.done = err, true }

func TestCallStreamsFramesInOrder(t *testing.T) {
	n := New(WithSeed(5), WithLatency(time.Millisecond, 10*time.Millisecond))
	h := &scriptHandler{frames: [][]byte{[]byte("a"), []byte("b"), []byte("c")}}
	n.RegisterHandler(1, transport.ChanSync, h)

	c := &collector{}
	n.Transport(0).Call(1, transport.ChanSync, []byte("want-all"), c)
	n.Run()
	if !c.done || c.err != nil {
		t.Fatalf("done=%v err=%v", c.done, c.err)
	}
	// Jitter is large relative to the base latency, yet stream order
	// must hold.
	if len(c.frames) != 3 || c.frames[0] != "a" || c.frames[1] != "b" || c.frames[2] != "c" {
		t.Fatalf("frames = %v", c.frames)
	}
	if h.calls != 1 || h.lastFrom != 0 || h.lastReq != "want-all" {
		t.Fatalf("handler saw calls=%d from=%v req=%q", h.calls, h.lastFrom, h.lastReq)
	}
	if s := n.Stats(); s.Calls != 1 || s.CallFrames != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestCallNoHandlerFailsExplicitly(t *testing.T) {
	n := New(WithSeed(1))
	n.Register(1, transport.ChanGossip, &recorder{net: n}) // endpoint but no handler
	c := &collector{}
	n.Transport(0).Call(1, transport.ChanSync, []byte("req"), c)
	n.Run()
	if !c.done || !errors.Is(c.err, transport.ErrNoHandler) {
		t.Fatalf("done=%v err=%v, want ErrNoHandler", c.done, c.err)
	}
}

func TestCallUnknownServerFailsExplicitly(t *testing.T) {
	n := New(WithSeed(1))
	c := &collector{}
	n.Transport(0).Call(9, transport.ChanSync, []byte("req"), c)
	n.Run()
	if !c.done || !errors.Is(c.err, transport.ErrUnreachable) {
		t.Fatalf("done=%v err=%v, want ErrUnreachable", c.done, c.err)
	}
}

func TestCallPartitionedLinkFails(t *testing.T) {
	n := New(WithSeed(1))
	n.RegisterHandler(1, transport.ChanSync, &scriptHandler{})
	n.SetPartition(func(from, to types.ServerID) bool { return true })
	c := &collector{}
	n.Transport(0).Call(1, transport.ChanSync, []byte("req"), c)
	n.Run()
	if !c.done || !errors.Is(c.err, transport.ErrUnreachable) {
		t.Fatalf("done=%v err=%v, want ErrUnreachable", c.done, c.err)
	}
}

func TestCallServerErrorPropagates(t *testing.T) {
	n := New(WithSeed(1))
	boom := errors.New("boom")
	n.RegisterHandler(1, transport.ChanSync, &scriptHandler{closeErr: boom})
	c := &collector{}
	n.Transport(0).Call(1, transport.ChanSync, []byte("req"), c)
	n.Run()
	if !c.done || !errors.Is(c.err, boom) {
		t.Fatalf("done=%v err=%v, want boom", c.done, c.err)
	}
}

// pacedHandler emits one frame per timer event — a long-running stream a
// crash can interrupt mid-flight.
type pacedHandler struct {
	net    *Network
	frames int
}

func (h *pacedHandler) ServeCall(from types.ServerID, req []byte, st transport.ServerStream) {
	var emit func(i int)
	emit = func(i int) {
		if i == h.frames {
			st.Close(nil)
			return
		}
		if err := st.Send([]byte{byte(i)}); err != nil {
			return
		}
		h.net.After(5*time.Millisecond, func() { emit(i + 1) })
	}
	emit(0)
}

// TestCallAbortsWhenServerDeregisteredMidStream: a server crashing in the
// middle of a paced stream leaves the client with the frames that were in
// flight and an explicit ErrStreamLost — never a hang.
func TestCallAbortsWhenServerDeregisteredMidStream(t *testing.T) {
	n := New(WithSeed(2), WithLatency(time.Millisecond, 0))
	h := &pacedHandler{net: n, frames: 100}
	n.RegisterHandler(1, transport.ChanSync, h)
	c := &collector{}
	n.Transport(0).Call(1, transport.ChanSync, []byte("req"), c)
	n.After(20*time.Millisecond, func() { n.Deregister(1) })
	n.Run()
	if !c.done {
		t.Fatal("client hung after mid-stream crash")
	}
	if !errors.Is(c.err, transport.ErrStreamLost) {
		t.Fatalf("err = %v, want ErrStreamLost", c.err)
	}
	if len(c.frames) == 0 || len(c.frames) >= 100 {
		t.Fatalf("frames before crash = %d, want a strict mid-stream prefix", len(c.frames))
	}
}

// TestCallCancelStopsDelivery: a canceled call delivers nothing further.
func TestCallCancelStopsDelivery(t *testing.T) {
	n := New(WithSeed(3), WithLatency(time.Millisecond, 0))
	h := &pacedHandler{net: n, frames: 50}
	n.RegisterHandler(1, transport.ChanSync, h)
	c := &collector{}
	cancel := n.Transport(0).Call(1, transport.ChanSync, []byte("req"), c)
	n.After(10*time.Millisecond, cancel)
	n.Run()
	if c.done {
		t.Fatal("canceled call still delivered OnDone")
	}
	if len(c.frames) >= 50 {
		t.Fatalf("cancel did not stop the stream: %d frames", len(c.frames))
	}
}

// TestCallDeterminism: identical seeds give identical call traces.
func TestCallDeterminism(t *testing.T) {
	run := func() ([]string, error) {
		n := New(WithSeed(11), WithLatency(2*time.Millisecond, 9*time.Millisecond))
		h := &scriptHandler{frames: [][]byte{[]byte("x"), []byte("y")}}
		n.RegisterHandler(1, transport.ChanSync, h)
		c := &collector{}
		n.Transport(0).Call(1, transport.ChanSync, []byte("r"), c)
		n.Run()
		return c.frames, c.err
	}
	f1, e1 := run()
	f2, e2 := run()
	if len(f1) != len(f2) || (e1 == nil) != (e2 == nil) {
		t.Fatalf("runs diverge: %v/%v vs %v/%v", f1, e1, f2, e2)
	}
}

// TestListenedLinkCallsOnlyOnceStarted: a Listen'd server's handlers serve
// its peers at once, while its own calls fail there and then, with no
// event and no draw from the link model, until its Link is started — a
// booting node that waited on one would wait on the goroutine that steps
// the network — and go out after Start; Close deregisters it.
func TestListenedLinkCallsOnlyOnceStarted(t *testing.T) {
	n := New(WithSeed(3))
	h := &scriptHandler{frames: [][]byte{[]byte("a")}}
	server := n.Listen(tcpnet.Config{Self: 1, Handlers: map[transport.Channel]transport.Handler{transport.ChanSync: h}})
	client := n.Listen(tcpnet.Config{Self: 0})

	early := &collector{}
	client.Call(1, transport.ChanSync, []byte("boot"), early)
	if !early.done || !errors.Is(early.err, ErrNotStarted) || n.Stats().Calls != 0 || n.Step() {
		t.Fatalf("a call before Start: done=%v err=%v, %d calls opened", early.done, early.err, n.Stats().Calls)
	}
	if err := client.Start(func() error { t.Fatal("a stepped link started the node"); return nil }); err != nil {
		t.Fatal(err)
	}
	c := &collector{}
	client.Call(1, transport.ChanSync, []byte("run"), c)
	n.Run()
	if !c.done || c.err != nil || len(c.frames) != 1 || h.lastReq != "run" {
		t.Fatalf("after Start: done=%v err=%v frames=%v", c.done, c.err, c.frames)
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	gone := &collector{}
	client.Call(1, transport.ChanSync, []byte("again"), gone)
	n.Run()
	if !errors.Is(gone.err, transport.ErrUnreachable) {
		t.Fatalf("a call to a closed link's server: err=%v, want ErrUnreachable", gone.err)
	}
}
