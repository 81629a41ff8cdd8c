package transport

import (
	"fmt"
	"testing"

	"blockdag/internal/types"
)

// recorder logs deliveries.
type recorder struct {
	got []string
}

func (r *recorder) Deliver(from types.ServerID, payload []byte) {
	r.got = append(r.got, fmt.Sprintf("%v:%s", from, payload))
}

// TestLateBoundBuffersPreBindDeliveries: deliveries arriving before Bind
// are not lost — a sync response must survive the wiring window — and
// flush in arrival order.
func TestLateBoundBuffersPreBindDeliveries(t *testing.T) {
	lb := &LateBound{}
	lb.Deliver(1, []byte("a"))
	lb.Deliver(2, []byte("b"))
	lb.Deliver(3, []byte("c"))

	r := &recorder{}
	lb.Bind(r)
	want := []string{"s1:a", "s2:b", "s3:c"}
	if len(r.got) != len(want) {
		t.Fatalf("flushed = %v", r.got)
	}
	for i := range want {
		if r.got[i] != want[i] {
			t.Fatalf("flush order = %v, want %v", r.got, want)
		}
	}

	// Post-bind deliveries forward directly.
	lb.Deliver(4, []byte("d"))
	if len(r.got) != 4 || r.got[3] != "s4:d" {
		t.Fatalf("post-bind delivery = %v", r.got)
	}
}

// keeper keeps the last payload it was delivered.
type keeper struct{ payload []byte }

func (k *keeper) Deliver(_ types.ServerID, payload []byte) { k.payload = payload }

// TestLateBoundHandsPayloadOver: Deliver hands the payload over for good,
// so buffering keeps the slice it was given and the bound endpoint receives
// that slice, before and after Bind — no copy on the way.
func TestLateBoundHandsPayloadOver(t *testing.T) {
	lb, k := &LateBound{}, &keeper{}
	early, late := []byte("early"), []byte("late")
	lb.Deliver(1, early)
	lb.Bind(k)
	if &k.payload[0] != &early[0] {
		t.Fatal("a buffered delivery reached the endpoint as a copy")
	}
	lb.Deliver(1, late)
	if &k.payload[0] != &late[0] {
		t.Fatal("a forwarded delivery reached the endpoint as a copy")
	}
}

// TestLateBoundBufferCapDropsOldest: the buffer is bounded; overflow
// drops the oldest frames.
func TestLateBoundBufferCapDropsOldest(t *testing.T) {
	lb := &LateBound{}
	for i := 0; i < LateBoundBuffer+2; i++ {
		lb.Deliver(0, []byte{byte(i)})
	}
	r := &recorder{}
	lb.Bind(r)
	if len(r.got) != LateBoundBuffer || r.got[0] != "s0:\x02" || r.got[len(r.got)-1] != "s0:\x01" {
		t.Fatalf("flushed %d frames, first %q last %q, want the newest %d", len(r.got), r.got[0], r.got[len(r.got)-1], LateBoundBuffer)
	}
}

// TestChannelValidity pins the wire-visible channel values.
func TestChannelValidity(t *testing.T) {
	if !ChanGossip.Valid() || !ChanSync.Valid() {
		t.Fatal("framework channels must be valid")
	}
	if Channel(0).Valid() || Channel(9).Valid() {
		t.Fatal("unknown channels must be invalid")
	}
	if ChanGossip != 1 || ChanSync != 2 {
		t.Fatalf("channel values changed: gossip=%d sync=%d", ChanGossip, ChanSync)
	}
}
