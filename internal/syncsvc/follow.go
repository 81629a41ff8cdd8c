// Live-follower support: the watermark-exchange side of the sync
// protocol. A running node periodically asks a rotating peer for its
// watermark vector (one cheap call, one small frame) and opens a delta
// stream — the same pull startup catch-up uses — only when the peer
// actually holds blocks the local DAG does not. See the package comment
// for the protocol and threat model.

package syncsvc

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"blockdag/internal/block"
	"blockdag/internal/transport"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// EncodeWatermarkRequest renders a watermark-exchange query — the probe
// a live follower sends every poll period.
func EncodeWatermarkRequest() []byte {
	return []byte{reqWatermarks}
}

// EncodeWatermarkFrame renders the server's answer to a watermark query:
// its own vector in one frame.
func EncodeWatermarkFrame(wms []Watermark) []byte {
	w := wire.NewWriter(2 + len(wms)*6)
	w.Byte(frameWatermarks)
	encodeWatermarkList(w, wms)
	return w.Bytes()
}

// DecodeWatermarkFrame inverts EncodeWatermarkFrame.
func DecodeWatermarkFrame(frame []byte) ([]Watermark, error) {
	r := wire.NewReader(frame)
	if k := r.Byte(); r.Err() == nil && k != frameWatermarks {
		return nil, fmt.Errorf("syncsvc: unexpected frame kind %d, want watermarks", k)
	}
	wms := decodeWatermarkList(r)
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("syncsvc: bad watermark frame: %w", err)
	}
	return wms, nil
}

// Lag counts the blocks a peer's advertised watermark vector names
// outside the local horizon, summed over builders: how far behind that
// peer the local node is, by the peer's own account. The horizon
// (WatermarkTracker.Horizon) never omits an equivocating builder, so a
// follower already holding a forked builder's blocks is not re-pulled
// every poll; variants beyond it ride the FWD path.
func Lag(local map[types.ServerID]uint64, peer []Watermark) uint64 {
	var lag uint64
	for _, wm := range peer {
		if have := local[wm.Builder]; wm.NextSeq > have {
			lag += wm.NextSeq - have
		}
	}
	return lag
}

// Behind reports whether a peer's advertised watermark vector names any
// block outside the local horizon — the trigger for a delta pull. A
// peer can lie here in either direction: claiming too little makes the
// follower skip a pull (no worse than not polling that peer), claiming
// too much makes it open one delta stream whose blocks are then checked
// like any other — so a lying peer wastes one round trip, never poisons
// state.
func Behind(local map[types.ServerID]uint64, peer []Watermark) bool {
	return Lag(local, peer) > 0
}

// WatermarkQuery is the client side of one watermark-exchange call: a
// transport.CallSink that collects the peer's vector. Safe for
// concurrent sink invocation and inspection.
type WatermarkQuery struct {
	settled
	wms []Watermark
	got bool
}

var _ transport.CallSink = (*WatermarkQuery)(nil)

// NewWatermarkQuery prepares a query. onDone, if non-nil, runs exactly
// once when the call terminates, under NewPull's conditions.
func NewWatermarkQuery(onDone func()) *WatermarkQuery {
	return &WatermarkQuery{settled: newSettled(onDone)}
}

// OnFrame implements transport.CallSink.
func (q *WatermarkQuery) OnFrame(frame []byte) {
	q.frame(func() error {
		if q.got {
			return fmt.Errorf("%w: second frame on a watermark query", ErrBadStream)
		}
		wms, err := DecodeWatermarkFrame(frame)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadStream, err)
		}
		q.wms, q.got = wms, true
		return nil
	})
}

// OnDone implements transport.CallSink.
func (q *WatermarkQuery) OnDone(err error) {
	q.settle(err, func() error {
		if !q.got {
			return errors.New("syncsvc: watermark query ended without a vector")
		}
		return nil
	})
}

// Result returns the peer's vector and the query's terminal error.
func (q *WatermarkQuery) Result() ([]Watermark, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.wms, q.err
}

// WatermarkTracker maintains a server's own watermark vector
// incrementally, so watermark queries are answered from a few counters
// instead of a store scan. It is safe for concurrent use: the node loop
// observes blocks as they persist while transport goroutines snapshot
// the vector for peers.
//
// Observation order is the DAG insertion order, whose parent rule
// guarantees per-builder sequence numbers arrive contiguously from 0 —
// so one next-seq counter per builder suffices; a repeated or
// out-of-order sequence number marks the builder forked (equivocation),
// which drops it from the vector. Watermarks is this rule folded over a
// block list.
type WatermarkTracker struct {
	mu     sync.Mutex
	chains map[types.ServerID]*trackedChain
}

type trackedChain struct {
	next   uint64
	forked bool
}

// NewWatermarkTracker returns an empty tracker; seed it by observing the
// blocks recovered from the store in replay order.
func NewWatermarkTracker() *WatermarkTracker {
	return &WatermarkTracker{chains: make(map[types.ServerID]*trackedChain)}
}

// SeedHorizon primes the tracker at a pruned store's (or DAG's) horizon: each
// builder's counter starts at its first retained sequence number, so
// the advertised vector claims the pruned prefix (covered by the
// certified snapshot) without ever having observed it. Call once,
// before any Observe; counters only move forward.
func (t *WatermarkTracker) SeedHorizon(horizon map[types.ServerID]uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for builder, h := range horizon {
		c := t.chains[builder]
		if c == nil {
			c = &trackedChain{}
			t.chains[builder] = c
		}
		if h > c.next {
			c.next = h
		}
	}
}

// Observe records one block now held durably. Call in insertion order.
func (t *WatermarkTracker) Observe(b *block.Block) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := t.chains[b.Builder]
	if c == nil {
		c = &trackedChain{}
		t.chains[b.Builder] = c
	}
	if b.Seq == c.next {
		c.next++
		return
	}
	// A slot revisited (equivocation variant) or skipped (an
	// out-of-contract feed): either way the single-chain-prefix claim no
	// longer holds, so the builder leaves the vector.
	c.forked = true
	if b.Seq >= c.next {
		c.next = b.Seq + 1
	}
}

// Horizon returns the tracker's per-builder horizon — next sequence
// number per builder, forked builders included: what Lag and Behind
// compare a peer's claims against, in O(#builders).
func (t *WatermarkTracker) Horizon() map[types.ServerID]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	horizon := make(map[types.ServerID]uint64, len(t.chains))
	for builder, c := range t.chains {
		if c.next > 0 {
			horizon[builder] = c.next
		}
	}
	return horizon
}

// Snapshot returns the current vector, sorted by builder.
func (t *WatermarkTracker) Snapshot() []Watermark {
	t.mu.Lock()
	defer t.mu.Unlock()
	wms := make([]Watermark, 0, len(t.chains))
	for builder, c := range t.chains {
		if c.forked || c.next == 0 {
			continue
		}
		wms = append(wms, Watermark{Builder: builder, NextSeq: c.next})
	}
	slices.SortFunc(wms, func(a, b Watermark) int {
		return int(a.Builder) - int(b.Builder)
	})
	return wms
}
