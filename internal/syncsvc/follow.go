// What a node holds, as the sync channel states it: the watermark
// tracker a node keeps per block inserted, the horizon it asks with, and
// the comparison (Lag) by which a server decides whether a delta request
// has anything coming. See the package comment for the protocol and threat
// model.

package syncsvc

import (
	"slices"
	"sync"

	"blockdag/internal/block"
	"blockdag/internal/types"
)

// Lag counts the blocks a watermark vector names outside the local
// horizon, summed over builders: how far behind the vector's holder the
// local node is. A server decides with it whether a delta request gets a
// stream — local is then the requester's horizon, which never omits an
// equivocating builder, so a follower already holding a forked builder's
// blocks is not re-streamed them every poll; variants beyond it ride the
// FWD path.
func Lag(local map[types.ServerID]uint64, peer []Watermark) uint64 {
	var lag uint64
	for _, wm := range peer {
		if have := local[wm.Builder]; wm.NextSeq > have {
			lag += wm.NextSeq - have
		}
	}
	return lag
}

// Behind reports whether a watermark vector names any block outside the
// local horizon (Lag > 0).
func Behind(local map[types.ServerID]uint64, peer []Watermark) bool {
	return Lag(local, peer) > 0
}

// WatermarkTracker maintains a server's own watermark vector
// incrementally, so a delta request that has nothing coming is answered
// from a few counters instead of a store scan, and the node's own requests
// state what it holds without one. It is safe for concurrent use: the node
// loop observes blocks as they persist while transport goroutines snapshot
// the vector for peers.
//
// Observation order is the DAG insertion order, whose parent rule
// guarantees per-builder sequence numbers arrive contiguously from 0 —
// so one next-seq counter per builder suffices; a repeated or
// out-of-order sequence number marks the builder forked (equivocation),
// which drops it from the vector (Snapshot) and marks it in the horizon.
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

// Horizon returns what the node holds, per builder and sorted by builder,
// forked builders included and marked: what a delta request states
// (EncodeRequest), in O(#builders).
func (t *WatermarkTracker) Horizon() []Watermark {
	t.mu.Lock()
	defer t.mu.Unlock()
	wms := make([]Watermark, 0, len(t.chains))
	for builder, c := range t.chains {
		if c.next > 0 {
			wms = append(wms, Watermark{Builder: builder, NextSeq: c.next, Forked: c.forked})
		}
	}
	slices.SortFunc(wms, func(a, b Watermark) int {
		return int(a.Builder) - int(b.Builder)
	})
	return wms
}

// Snapshot returns the current vector — the horizon less the forked
// builders: what a server compares requests with. Never nil.
func (t *WatermarkTracker) Snapshot() []Watermark {
	return slices.DeleteFunc(t.Horizon(), func(wm Watermark) bool { return wm.Forked })
}
