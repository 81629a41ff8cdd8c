package mempool

import (
	"errors"
	"fmt"

	"blockdag/internal/block"
)

// Validation errors. They are distinct from the admission errors in
// mempool.go: a validation failure means the request itself is bad and a
// retry will fail the same way, while ErrFull and ErrDuplicate describe
// pool state.
var (
	// ErrTooLarge reports a request exceeding the per-request size limits.
	ErrTooLarge = errors.New("mempool: request too large")
	// ErrEmptyLabel reports a request without a protocol-instance label;
	// the interpreter cannot route it, so admitting it wastes a block slot.
	ErrEmptyLabel = errors.New("mempool: empty request label")
)

// Default limits; see Options for what each bounds.
const (
	// DefaultCapacity is the default hard bound on queued requests.
	DefaultCapacity = 1 << 16
	// DefaultDedupWindow is the default recently-seen cache size: twice
	// the capacity, so a full queue's worth of drained requests stays
	// remembered alongside a full queue of fresh ones.
	DefaultDedupWindow = 1 << 17
	// DefaultMaxRequestBytes is the default per-request data limit.
	DefaultMaxRequestBytes = 64 << 10
	// DefaultMaxLabelBytes is the default per-request label limit.
	DefaultMaxLabelBytes = 256
)

// Options configures a Pool. The zero value selects the defaults above.
type Options struct {
	// Capacity is the hard bound on queued requests; submissions beyond
	// it fail with ErrFull. Requeued requests are exempt (see Requeue).
	Capacity int
	// DedupWindow is the size of the recently-seen cache. It should
	// exceed Capacity, or requests still queued could have their dedup
	// entry evicted while fresh duplicates arrive. (The pool stays
	// correct regardless — the queued set catches those — but the window
	// then no longer covers drained requests.)
	DedupWindow int
	// MaxRequestBytes bounds a single request's data payload.
	MaxRequestBytes int
	// MaxLabelBytes bounds a single request's label.
	MaxLabelBytes int
}

// drainBytes bounds the cumulative payload (label + data) of one Next drain:
// the producer-side budget, which keeps every built block under the
// network-wide decode budget — a block past it is discarded by every correct
// peer, and since later own blocks chain to it, its builder would be
// partitioned.
const drainBytes = block.MaxProducerPayloadBytes

// applyDefaults fills zero-valued fields in place.
func (o *Options) applyDefaults() {
	if o.Capacity <= 0 {
		o.Capacity = DefaultCapacity
	}
	if o.DedupWindow <= 0 {
		o.DedupWindow = 2 * o.Capacity
	}
	if o.MaxRequestBytes <= 0 {
		o.MaxRequestBytes = DefaultMaxRequestBytes
	}
	if o.MaxLabelBytes <= 0 {
		o.MaxLabelBytes = DefaultMaxLabelBytes
	}
	// A single admitted request must fit in one drain, or Next could
	// never emit it without blowing the budget. The per-request limits
	// are clamped down to the drain budget.
	if o.MaxLabelBytes > drainBytes/2 {
		o.MaxLabelBytes = drainBytes / 2
	}
	if o.MaxLabelBytes+o.MaxRequestBytes > drainBytes {
		o.MaxRequestBytes = drainBytes - o.MaxLabelBytes
	}
}

// validate applies the built-in structural checks.
func (o *Options) validate(rq block.Request) error {
	if len(rq.Label) == 0 {
		return ErrEmptyLabel
	}
	if len(rq.Label) > o.MaxLabelBytes {
		return fmt.Errorf("%w: label of %d bytes exceeds %d", ErrTooLarge, len(rq.Label), o.MaxLabelBytes)
	}
	if len(rq.Data) > o.MaxRequestBytes {
		return fmt.Errorf("%w: %s carries %d bytes, limit %d", ErrTooLarge, rq.Label, len(rq.Data), o.MaxRequestBytes)
	}
	return nil
}
