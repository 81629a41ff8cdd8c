// Batch signature verification: amortizing Ed25519 checks across cores.
//
// The paper's hot receive path pays one serial ed25519.Verify per block
// (~57µs on commodity hardware), which caps ingest at a few thousand
// blocks per second per core however cheap everything else gets. Ed25519
// verification is embarrassingly parallel — every (key, msg, sig) triple
// is independent — so a worker pool over GOMAXPROCS cores turns the bound
// into cores × serial throughput.
package crypto

import (
	"runtime"
	"sync"
	"sync/atomic"

	"blockdag/internal/types"
)

// BatchItem is one signature check of a verification batch.
type BatchItem struct {
	// ID names the roster member whose key verifies the signature.
	ID types.ServerID
	// Msg is the signed message.
	Msg []byte
	// Sig is the claimed signature over Msg.
	Sig []byte
}

// batchSerialThreshold is the batch size below which the goroutine
// handoff costs more than it saves; such batches verify inline.
const batchSerialThreshold = 4

// VerifyBatch verifies every item of a batch and reports per-item
// validity, amortizing the Ed25519 work across workers goroutines
// (0 means GOMAXPROCS, 1 forces the serial path). Items naming a
// non-member ID fail. The verdicts are independent of worker count and
// scheduling — callers on deterministic harnesses may use any setting.
func (r *Roster) VerifyBatch(items []BatchItem, workers int) []bool {
	if len(items) == 0 {
		return nil
	}
	ok := make([]bool, len(items))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	if workers == 1 || len(items) < batchSerialThreshold {
		for i, it := range items {
			ok[i] = r.Verify(it.ID, it.Msg, it.Sig)
		}
		return ok
	}
	// Work-steal over an atomic cursor: signature cost is uniform enough
	// that static sharding would also do, but the cursor keeps stragglers
	// from idling workers when the batch is small relative to workers.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				it := items[i]
				ok[i] = r.Verify(it.ID, it.Msg, it.Sig)
			}
		}()
	}
	wg.Wait()
	return ok
}
