// Batch signature verification: amortizing Ed25519 checks across cores.
//
// The paper's hot receive path pays one serial ed25519.Verify per block
// (~57µs on commodity hardware), which caps ingest at a few thousand
// blocks per second per core however cheap everything else gets. Ed25519
// verification is embarrassingly parallel — every (key, msg, sig) triple
// is independent — so a worker pool over GOMAXPROCS cores turns the bound
// into cores × serial throughput. An algebraic batch-verification backend
// (half the scalar multiplications of n single verifies) can additionally
// be plugged in via SetBatchVerifier; the standard library has none, so
// the default is the worker pool alone.
package crypto

import (
	"crypto/ed25519"
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

// BatchVerifier is the seam for an algebraic ed25519 batch-verification
// backend (e.g. a circl- or dalek-style implementation): given parallel
// slices of keys, messages, and signatures, it reports per-item validity.
// Implementations must be safe for concurrent use and must fall back to
// per-item verification when the aggregate check fails, so a single bad
// signature cannot poison the verdict of the honest items around it.
type BatchVerifier func(keys []ed25519.PublicKey, msgs, sigs [][]byte) []bool

// batchBackend holds the installed BatchVerifier, nil for none. Atomic so
// SetBatchVerifier is safe against concurrent VerifyBatch calls.
var batchBackend atomic.Pointer[BatchVerifier]

// SetBatchVerifier installs an algebraic batch-verification backend used
// by Roster.VerifyBatch instead of the worker pool. Pass nil to restore
// the default. The container ships no such backend; this is the gate a
// deployment with one flips, not a dependency.
func SetBatchVerifier(fn BatchVerifier) {
	if fn == nil {
		batchBackend.Store(nil)
		return
	}
	batchBackend.Store(&fn)
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
	if fn := batchBackend.Load(); fn != nil {
		r.verifyBatchBackend(*fn, items, ok)
		return ok
	}
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

// verifyBatchBackend routes a batch through the installed algebraic
// backend. Items whose ID is not a roster member fail up front and are
// excluded from the backend's slices.
func (r *Roster) verifyBatchBackend(fn BatchVerifier, items []BatchItem, ok []bool) {
	keys := make([]ed25519.PublicKey, 0, len(items))
	msgs := make([][]byte, 0, len(items))
	sigs := make([][]byte, 0, len(items))
	idx := make([]int, 0, len(items))
	for i, it := range items {
		key, member := r.PublicKey(it.ID)
		if !member {
			continue
		}
		r.counters.Add(Verified, 1)
		keys = append(keys, key)
		msgs = append(msgs, it.Msg)
		sigs = append(sigs, it.Sig)
		idx = append(idx, i)
	}
	if len(idx) == 0 {
		return
	}
	for j, valid := range fn(keys, msgs, sigs) {
		if j >= len(idx) {
			break
		}
		ok[idx[j]] = valid
	}
}
