package node

import (
	"fmt"
	"testing"

	"blockdag/internal/types"
)

func TestBrokerLookupAndEviction(t *testing.T) {
	b := NewIndicationBroker(2)
	b.Publish("a", []byte("1"))
	b.Publish("b", []byte("2"))
	if ind, ok := b.Lookup("a"); !ok || string(ind.Value) != "1" {
		t.Fatalf("Lookup(a) = %v, %v", ind, ok)
	}
	// Re-publishing an indexed label must not evict anyone.
	b.Publish("a", []byte("1b"))
	if ind, ok := b.Lookup("b"); !ok || string(ind.Value) != "2" {
		t.Fatalf("b evicted by re-publish of a: %v, %v", ind, ok)
	}
	// A third distinct label evicts the oldest (a).
	b.Publish("c", []byte("3"))
	if _, ok := b.Lookup("a"); ok {
		t.Fatal("a survived eviction at maxLabels=2")
	}
	for _, want := range []struct {
		label types.Label
		value string
	}{{"b", "2"}, {"c", "3"}} {
		if ind, ok := b.Lookup(want.label); !ok || string(ind.Value) != want.value {
			t.Fatalf("Lookup(%s) = %v, %v", want.label, ind, ok)
		}
	}
	// An evicted label leaves the key set.
	b.Publish("d", []byte("4"))
	if got := b.labels.Len(); got != 2 {
		t.Fatalf("the index's key set holds %d labels, want c and d", got)
	}
}

// TestBrokerIndexBoundedByBytes: 16 KiB values fill the index's byte
// budget long before its label count; it ends within recentBytes, holding
// exactly the newest labels that fit — eviction is oldest first.
func TestBrokerIndexBoundedByBytes(t *testing.T) {
	b := NewIndicationBroker(0)
	value := make([]byte, 16<<10)
	const count = 256
	for i := 0; i < count; i++ {
		b.Publish(types.Label(fmt.Sprintf("big/%03d", i)), value)
		if got := b.IndexBytes(); got > recentBytes {
			t.Fatalf("after %d indications of 16 KiB the index holds %d B, want at most %d", i+1, got, recentBytes)
		}
	}
	fit := recentBytes / (len("big/000") + len(value))
	for i := 0; i < count; i++ {
		if _, ok := b.Lookup(types.Label(fmt.Sprintf("big/%03d", i))); ok != (i >= count-fit) {
			t.Fatalf("label %d of %d indexed: %v; want the newest %d", i, count, ok, fit)
		}
	}
	if got, want := b.IndexBytes(), int64(fit*(len("big/000")+len(value))); got != want {
		t.Fatalf("IndexBytes = %d, want %d", got, want)
	}
}

// TestBrokerIndexBytes: IndexBytes is the label and value bytes of what the
// index holds, through replacement, eviction and the replay window's close.
func TestBrokerIndexBytes(t *testing.T) {
	b := NewIndicationBroker(2)
	b.Publish("a", []byte("12"))
	b.Publish("bb", []byte("3"))
	b.Publish("a", []byte("4567")) // replaces a's value
	if got := b.IndexBytes(); got != 1+4+2+1 {
		t.Fatalf("IndexBytes = %d, want 8", got)
	}
	b.Publish("c", nil) // evicts a
	if got := b.IndexBytes(); got != 2+1+1 {
		t.Fatalf("IndexBytes after eviction = %d, want 4", got)
	}

	nb := NewIndicationBroker(0)
	nb.index = indexReplay // as New builds it
	nb.Publish("replayed", []byte("v"))
	nb.endReplay()
	if got := nb.IndexBytes(); got != 9 {
		t.Fatalf("replay window holds %d B, want 9", got)
	}
	nb.Publish("live", []byte("w"))
	if got := nb.IndexBytes(); got != 0 {
		t.Fatalf("unclaimed index holds %d B after the window closed", got)
	}
}

func TestBrokerSeqMonotonic(t *testing.T) {
	b := NewIndicationBroker(0)
	sub := b.Subscribe(8)
	defer sub.Close()
	for i := 0; i < 3; i++ {
		b.Publish(types.Label(fmt.Sprintf("l%d", i)), nil)
	}
	for want := uint64(0); want < 3; want++ {
		ind := <-sub.C()
		if ind.Seq != want {
			t.Fatalf("seq = %d, want %d", ind.Seq, want)
		}
	}
}

func TestBrokerPublishNeverBlocks(t *testing.T) {
	b := NewIndicationBroker(0)
	sub := b.Subscribe(1)
	defer sub.Close()
	// Fill the buffer, then keep publishing: the overflow must be dropped,
	// never block the (loop-goroutine) publisher.
	for i := 0; i < 5; i++ {
		b.Publish("l", []byte{byte(i)})
	}
	if got := len(sub.C()); got != 1 {
		t.Fatalf("subscription holds %d indications, want its buffer's 1", got)
	}
	if ind := <-sub.C(); ind.Value[0] != 0 {
		t.Fatalf("buffered indication = %v, want the first", ind.Value)
	}
	// The replay index still has the newest despite the drops.
	if ind, ok := b.Lookup("l"); !ok || ind.Value[0] != 4 {
		t.Fatalf("Lookup after drops = %v, %v", ind, ok)
	}
}

func TestBrokerValueCopied(t *testing.T) {
	b := NewIndicationBroker(0)
	buf := []byte("orig")
	b.Publish("l", buf)
	buf[0] = 'X'
	if ind, _ := b.Lookup("l"); string(ind.Value) != "orig" {
		t.Fatalf("published value aliased the caller's buffer: %q", ind.Value)
	}
}

func TestBrokerClose(t *testing.T) {
	b := NewIndicationBroker(0)
	sub := b.Subscribe(4)
	b.Publish("l", []byte("v"))
	b.Close()
	b.Close() // idempotent

	// The buffered indication drains, then the channel reports closed.
	if ind, open := <-sub.C(); !open || string(ind.Value) != "v" {
		t.Fatalf("buffered drain = %v, %v", ind, open)
	}
	if _, open := <-sub.C(); open {
		t.Fatal("channel still open after broker Close")
	}
	// Publish after Close is inert; Subscribe returns an already-closed sub.
	b.Publish("m", nil)
	if _, ok := b.Lookup("m"); ok {
		t.Fatal("Publish after Close reached the index")
	}
	late := b.Subscribe(1)
	if _, open := <-late.C(); open {
		t.Fatal("Subscribe after Close returned a live channel")
	}
	late.Close() // must not panic on double close path
	sub.Close()
}

func TestBrokerSubCloseDeregisters(t *testing.T) {
	b := NewIndicationBroker(0)
	sub := b.Subscribe(1)
	sub.Close()
	sub.Close() // idempotent
	b.Publish("l", nil)
	b.Close() // must not double-close sub's channel
}

func TestBrokerNilSafe(t *testing.T) {
	var b *IndicationBroker
	b.Publish("l", nil) // must not panic
	b.Close()
}
