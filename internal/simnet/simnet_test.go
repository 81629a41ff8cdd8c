package simnet

import (
	"fmt"
	"testing"
	"time"

	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// recorder is a test endpoint logging deliveries.
type recorder struct {
	log []string
	net *Network
}

func (r *recorder) Deliver(from types.ServerID, payload []byte) {
	r.log = append(r.log, fmt.Sprintf("%v:%s@%v", from, payload, r.net.Now()))
}

func TestDeliveryWithLatency(t *testing.T) {
	n := New(WithSeed(7), WithLatency(10*time.Millisecond, 0))
	r := &recorder{net: n}
	n.Register(1, transport.ChanGossip, r)
	n.Transport(0).Send(1, transport.ChanGossip, []byte("x"))
	n.Run()
	if len(r.log) != 1 {
		t.Fatalf("deliveries = %v", r.log)
	}
	if n.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v, want 10ms", n.Now())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []string {
		n := New(WithSeed(42), WithLatency(5*time.Millisecond, 20*time.Millisecond))
		r := &recorder{net: n}
		for id := types.ServerID(0); id < 4; id++ {
			n.Register(id, transport.ChanGossip, r)
		}
		for i := 0; i < 20; i++ {
			from := types.ServerID(i % 4)
			to := types.ServerID((i + 1) % 4)
			n.Transport(from).Send(to, transport.ChanGossip, []byte{byte(i)})
		}
		n.Run()
		return r.log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestJitterReordersDeliveries(t *testing.T) {
	n := New(WithSeed(3), WithLatency(time.Millisecond, 50*time.Millisecond))
	r := &recorder{net: n}
	n.Register(1, transport.ChanGossip, r)
	for i := 0; i < 10; i++ {
		n.Transport(0).Send(1, transport.ChanGossip, []byte{byte('a' + i)})
	}
	n.Run()
	if len(r.log) != 10 {
		t.Fatalf("deliveries = %d, want 10", len(r.log))
	}
	inOrder := true
	for i := 1; i < len(r.log); i++ {
		// log entries look like "s0:<payload>@<time>"; byte 3 is the
		// payload character.
		if r.log[i-1][3] > r.log[i][3] {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("50ms jitter never reordered 10 sends; suspicious")
	}
}

func TestDrop(t *testing.T) {
	n := New(WithSeed(1), WithDrop(1.0))
	r := &recorder{net: n}
	n.Register(1, transport.ChanGossip, r)
	n.Transport(0).Send(1, transport.ChanGossip, []byte("x"))
	n.Run()
	if len(r.log) != 0 {
		t.Fatalf("delivery despite 100%% drop: %v", r.log)
	}
	if n.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d", n.Stats().Dropped)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(WithSeed(1), WithLatency(time.Millisecond, 0))
	r := &recorder{net: n}
	n.Register(1, transport.ChanGossip, r)
	n.SetPartition(func(from, to types.ServerID) bool { return from == 0 })
	n.Transport(0).Send(1, transport.ChanGossip, []byte("blocked"))
	n.Run()
	if len(r.log) != 0 {
		t.Fatal("partition leaked a payload")
	}
	n.SetPartition(nil)
	n.Transport(0).Send(1, transport.ChanGossip, []byte("healed"))
	n.Run()
	if len(r.log) != 1 {
		t.Fatalf("deliveries after heal = %v", r.log)
	}
}

func TestAfterTimerOrdering(t *testing.T) {
	n := New(WithSeed(1))
	var fired []int
	n.After(30*time.Millisecond, func() { fired = append(fired, 3) })
	n.After(10*time.Millisecond, func() { fired = append(fired, 1) })
	n.After(20*time.Millisecond, func() { fired = append(fired, 2) })
	n.Run()
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Fatalf("timer order = %v", fired)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	n := New(WithSeed(1), WithLatency(time.Millisecond, 0))
	r := &recorder{net: n}
	n.Register(1, transport.ChanGossip, r)
	buf := []byte("orig")
	n.Transport(0).Send(1, transport.ChanGossip, buf)
	copy(buf, "XXXX") // mutate after send
	n.Run()
	if len(r.log) != 1 || r.log[0] != "s0:orig@1ms" {
		t.Fatalf("log = %v, payload not copied at boundary", r.log)
	}
}

func TestSendToUnregisteredCountsDropped(t *testing.T) {
	n := New(WithSeed(1))
	n.Transport(0).Send(9, transport.ChanGossip, []byte("void"))
	n.Run()
	if n.Stats().Dropped != 1 {
		t.Fatalf("Dropped = %d", n.Stats().Dropped)
	}
}

func TestReentrantSendDuringDelivery(t *testing.T) {
	n := New(WithSeed(1), WithLatency(time.Millisecond, 0))
	done := false
	var relay relayEndpoint
	relay = relayEndpoint{fn: func(from types.ServerID, payload []byte) {
		if string(payload) == "ping" {
			n.Transport(1).Send(0, transport.ChanGossip, []byte("pong"))
			return
		}
		done = true
	}}
	n.Register(0, transport.ChanGossip, relay)
	n.Register(1, transport.ChanGossip, relay)
	n.Transport(0).Send(1, transport.ChanGossip, []byte("ping"))
	n.Run()
	if !done {
		t.Fatal("reentrant send was not delivered")
	}
}

type relayEndpoint struct {
	fn func(from types.ServerID, payload []byte)
}

func (r relayEndpoint) Deliver(from types.ServerID, payload []byte) { r.fn(from, payload) }

func TestStats(t *testing.T) {
	n := New(WithSeed(1), WithLatency(time.Millisecond, 0))
	r := &recorder{net: n}
	n.Register(1, transport.ChanGossip, r)
	n.Transport(0).Send(1, transport.ChanGossip, []byte("abcd"))
	n.Run()
	s := n.Stats()
	if s.Sends != 1 || s.Delivered != 1 || s.Bytes != 4 {
		t.Fatalf("stats = %+v", s)
	}
}
