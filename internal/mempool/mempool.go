// Package mempool implements the client-request ingestion pool that feeds
// block production — the front half of a high-throughput deployment.
//
// The paper's Algorithm 3 keeps a bare rqsts buffer: whatever the demo
// pushed in is embedded in the next block, unconditionally. That shape
// cannot face real clients. Pool upgrades the buffer into a subsystem:
//
//   - admission: per-request validation (label and size limits) rejects
//     garbage before it costs a block slot;
//   - dedup: a bounded, hash-keyed recently-seen cache drops client
//     retries and byzantine replays, FIFO-evicted so memory stays capped;
//   - backpressure: a hard capacity returns ErrFull to submitters (the
//     gateway answers 503) — the pool never silently discards an accepted
//     request;
//   - ordering: drains are deterministic FIFO in admission order, capped
//     by both a count and a byte budget so built blocks stay under the
//     decode-side payload budget (block.MaxPayloadBytes);
//   - requeue: requests drained into a block that was withheld from the
//     network (persist failure) return to the front of the queue exactly
//     once, however often the failure repeats.
//
// Pool implements gossip.RequestSource, so gossip.Disseminate batches up
// to block.MaxRequests pooled requests into every block. All methods are
// safe for concurrent use: clients submit from any goroutine while the
// node's loop goroutine drains.
package mempool

import (
	"errors"
	"fmt"
	"sync"

	"blockdag/internal/block"
	"blockdag/internal/crypto"
	"blockdag/internal/keyset"
	"blockdag/internal/metrics"
	"blockdag/internal/types"
	"blockdag/internal/wire"
)

// Submission errors. Gateways map them to client-visible backpressure
// (ErrFull: retry later elsewhere; ErrDuplicate: already accepted).
var (
	// ErrFull reports a pool at capacity; the request was not admitted.
	ErrFull = errors.New("mempool: pool at capacity")
	// ErrDuplicate reports a request already admitted (and possibly
	// already embedded) within the dedup window.
	ErrDuplicate = errors.New("mempool: duplicate request")
)

// Pool is the concurrent client-request pool. Construct with New.
type Pool struct {
	mu    sync.Mutex
	opts  Options
	queue []block.Request // admitted, not yet drained; FIFO from head
	head  int             // live queue starts here (amortized pop-front)
	bytes int             // cumulative payload bytes of the live queue
	// queued tracks the dedup keys of requests currently in the queue:
	// it makes Requeue idempotent (a request can be put back at most
	// once) and keeps the queue duplicate-free even after the seen cache
	// evicted an entry that is still buffered.
	queued map[[32]byte]struct{}
	// seen is the recently-seen cache: the keys of the last 2 × Capacity
	// admitted requests, evicted oldest first — insertion order, so every
	// run and replay takes the same dedup decisions. Keys stay remembered
	// after their request drained, so client retries of an embedded
	// request are dropped until the window rolls over.
	seen  keyset.Set
	stats Stats
}

// Stats is a point-in-time snapshot of the pool's counters.
type Stats struct {
	// Submitted counts all submission attempts (accepted or not).
	Submitted int64
	// Accepted counts requests admitted to the queue.
	Accepted int64
	// Duplicates counts submissions dropped by the dedup cache or
	// because an identical request is still queued.
	Duplicates int64
	// Invalid counts submissions rejected by validation (size or label).
	Invalid int64
	// Overflow counts submissions refused with ErrFull.
	Overflow int64
	// Drained counts requests handed to block production via Next.
	Drained int64
	// Requeued counts requests returned by Requeue after a withheld
	// broadcast.
	Requeued int64
	// Depth is the current queue length; PeakDepth its maximum so far.
	Depth     int
	PeakDepth int
	// DepthBytes is the cumulative payload (label + data) of the queue.
	DepthBytes int
}

// New builds a pool; zero-value options select the documented defaults.
func New(opts Options) *Pool {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCapacity
	}
	return &Pool{
		opts:   opts,
		queued: make(map[[32]byte]struct{}),
	}
}

// requestKey is the dedup identity of a request: the hash of its
// length-framed (label, data) pair. Length framing keeps the identity
// unambiguous — ("ab", "c") and ("a", "bc") hash differently — and
// hashing keeps the cache's memory independent of request size.
func requestKey(label types.Label, data []byte) [32]byte {
	w := wire.NewWriter(len(label) + len(data) + 8)
	w.String(string(label))
	w.VarBytes(data)
	return crypto.Hash(w.Bytes())
}

// Submit validates and admits one client request. It returns nil when the
// request is queued for inclusion in a future block, ErrDuplicate when it
// was already admitted within the dedup window, ErrFull under
// backpressure, or the validation error. Safe for concurrent use.
func (p *Pool) Submit(label types.Label, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.submit(block.Request{Label: label, Data: data})
}

// submit admits one request under the lock. The request's data is copied
// at the boundary; callers may reuse their buffers.
func (p *Pool) submit(rq block.Request) error {
	p.stats.Submitted++
	if err := validate(rq); err != nil {
		p.stats.Invalid++
		return err
	}
	k := requestKey(rq.Label, rq.Data)
	if _, dup := p.queued[k]; dup {
		p.stats.Duplicates++
		return fmt.Errorf("%w: %s (queued)", ErrDuplicate, rq.Label)
	}
	if p.seen.Has(string(k[:])) {
		p.stats.Duplicates++
		return fmt.Errorf("%w: %s", ErrDuplicate, rq.Label)
	}
	if p.depth() >= p.opts.Capacity {
		p.stats.Overflow++
		return fmt.Errorf("%w: %d requests", ErrFull, p.depth())
	}
	if p.seen.Add(string(k[:])); p.seen.Len() > 2*p.opts.Capacity {
		p.seen.Pop()
	}
	p.queued[k] = struct{}{}
	p.push(block.Request{Label: rq.Label, Data: append([]byte(nil), rq.Data...)})
	p.stats.Accepted++
	return nil
}

// Next implements gossip.RequestSource: remove and return up to max
// queued requests in admission order, stopping early when the cumulative
// payload (label + data bytes, payloadBytes) would exceed
// block.MaxPayloadBytes — the bound every correct peer decodes against, so
// a block built from the drain decodes everywhere. At least one request is
// returned whenever the queue is non-empty (validation bounds every
// single request under the budget).
func (p *Pool) Next(max int) []block.Request {
	p.mu.Lock()
	defer p.mu.Unlock()
	live := p.queue[p.head:]
	if len(live) == 0 || max <= 0 {
		return nil
	}
	n, budget := 0, block.MaxPayloadBytes
	for n < len(live) && n < max {
		cost := payloadBytes(live[n])
		if n > 0 && cost > budget {
			break
		}
		budget -= cost
		n++
	}
	out := make([]block.Request, n)
	copy(out, live[:n])
	for _, rq := range out {
		delete(p.queued, requestKey(rq.Label, rq.Data))
		p.bytes -= payloadBytes(rq)
	}
	clear(live[:n]) // the dead prefix must not pin the drained requests' data
	p.head += n
	p.compact()
	p.stats.Drained += int64(n)
	p.stats.Depth = p.depth()
	return out
}

// Requeue implements gossip.RequestSource: return drained requests to
// the front of the queue in their original order, ahead of anything
// admitted since — the path gossip takes when the block embedding them
// was withheld from the network (persist failure). Requeue is idempotent
// per request: a request already back in the queue is skipped, so a
// persist failure loop (drain, fail, requeue, drain the same batch, fail
// again, ...) can never duplicate a request in a later drain. Capacity is
// deliberately not enforced here — these requests were admitted once and
// must not be lost to a full pool.
func (p *Pool) Requeue(reqs []block.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fresh := make([]block.Request, 0, len(reqs))
	for _, rq := range reqs {
		k := requestKey(rq.Label, rq.Data)
		if _, already := p.queued[k]; already {
			continue
		}
		p.queued[k] = struct{}{}
		fresh = append(fresh, rq)
	}
	if len(fresh) == 0 {
		return
	}
	if p.head >= len(fresh) {
		// Reuse the dead prefix left by earlier drains.
		copy(p.queue[p.head-len(fresh):], fresh)
		p.head -= len(fresh)
	} else {
		p.queue = append(fresh, p.queue[p.head:]...)
		p.head = 0
	}
	for _, rq := range fresh {
		p.bytes += payloadBytes(rq)
	}
	p.stats.Requeued += int64(len(fresh))
	p.stats.Depth = p.depth()
	if p.stats.Depth > p.stats.PeakDepth {
		p.stats.PeakDepth = p.stats.Depth
	}
}

// Len returns the number of queued (admitted, undrained) requests.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.depth()
}

// Bytes returns the cumulative payload (label + data) of the queued
// requests: what the next block would carry, up to the drain budget. O(1).
func (p *Pool) Bytes() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.bytes
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.stats
	s.Depth = p.depth()
	s.DepthBytes = p.bytes
	return s
}

// Families declares what Collect samples from Stats.
var Families metrics.Table

var (
	submitted  = Families.Counter("mempool_submitted_total", "Submission attempts, accepted or not.")
	accepted   = Families.Counter("mempool_accepted_total", "Requests admitted to the queue.")
	duplicates = Families.Counter("mempool_duplicates_total", "Submissions dropped as duplicates.")
	invalid    = Families.Counter("mempool_invalid_total", "Submissions rejected by validation.")
	overflow   = Families.Counter("mempool_overflow_total", "Submissions refused with ErrFull.")
	drained    = Families.Counter("mempool_drained_total", "Requests handed to block production, those of a block withheld on a persist failure included: they are requeued, and dag_requests_embedded_total counts none of them.")
	requeued   = Families.Counter("mempool_requeued_total", "Requests returned after a withheld broadcast.")
	depth      = Families.Gauge("mempool_depth", "Current queue length.")
	peakDepth  = Families.Gauge("mempool_peak_depth", "Maximum queue length so far.")
	depthBytes = Families.Gauge("mempool_depth_bytes", "Label and data bytes of the queued requests.")
)

// Collect is the pool's metrics.Collector: the admission counters and the
// depth gauges, in requests and in bytes, of one Stats.
func (p *Pool) Collect(emit func(metrics.Metric)) {
	s := p.Stats()
	for id, v := range map[metrics.ID]int64{
		submitted: s.Submitted, accepted: s.Accepted, duplicates: s.Duplicates, invalid: s.Invalid,
		overflow: s.Overflow, drained: s.Drained, requeued: s.Requeued,
		depth: int64(s.Depth), peakDepth: int64(s.PeakDepth), depthBytes: int64(s.DepthBytes),
	} {
		emit(Families.Sample(id, float64(v)))
	}
}

// depth is the live queue length; callers hold the lock.
func (p *Pool) depth() int { return len(p.queue) - p.head }

// push appends one admitted request; callers hold the lock.
func (p *Pool) push(rq block.Request) {
	p.queue = append(p.queue, rq)
	p.bytes += payloadBytes(rq)
	p.stats.Depth = p.depth()
	if p.stats.Depth > p.stats.PeakDepth {
		p.stats.PeakDepth = p.stats.Depth
	}
}

// compact drops the dead prefix once it dominates the backing array, so
// the queue's memory tracks its live depth instead of its history.
func (p *Pool) compact() {
	if p.head > len(p.queue)/2 && p.head > 0 {
		p.queue = append(p.queue[:0:0], p.queue[p.head:]...)
		p.head = 0
	}
}

// payloadBytes is the byte cost a request contributes to a block's
// payload budget: label plus data, mirroring the decode-side accounting
// of block.MaxPayloadBytes.
func payloadBytes(rq block.Request) int { return len(rq.Label) + len(rq.Data) }
