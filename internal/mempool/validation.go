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

// DefaultCapacity is Options.Capacity's default.
const DefaultCapacity = 1 << 16

// The per-request limits: a request's data and its label. No deployment has
// needed other values.
const (
	maxRequestBytes = 64 << 10
	maxLabelBytes   = 256
)

// Options configures a Pool. The zero value selects the defaults.
type Options struct {
	// Capacity is the hard bound on queued requests; submissions beyond
	// it fail with ErrFull. Requeued requests are exempt (see Requeue).
	// The recently-seen cache remembers twice as many keys, so a full
	// queue's worth of drained requests stays remembered alongside a full
	// queue of fresh ones.
	Capacity int
}

// A request at both limits fits one block (block.MaxPayloadBytes), or Next
// could never emit it: the constant conversion fails to compile if it does
// not.
const _ = uint(block.MaxPayloadBytes - maxLabelBytes - maxRequestBytes)

// validate applies the built-in structural checks.
func validate(rq block.Request) error {
	if len(rq.Label) == 0 {
		return ErrEmptyLabel
	}
	if len(rq.Label) > maxLabelBytes {
		return fmt.Errorf("%w: label of %d bytes exceeds %d", ErrTooLarge, len(rq.Label), maxLabelBytes)
	}
	if len(rq.Data) > maxRequestBytes {
		return fmt.Errorf("%w: %s carries %d bytes, limit %d", ErrTooLarge, rq.Label, len(rq.Data), maxRequestBytes)
	}
	return nil
}
