package mempool

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"blockdag/internal/block"
	"blockdag/internal/dagtest"
	"blockdag/internal/types"
)

func reqN(i int) (types.Label, []byte) {
	return types.Label(fmt.Sprintf("inst/%d", i)), []byte(fmt.Sprintf("payload-%d", i))
}

// TestSubmitDrainOrder: drains return admitted requests in FIFO admission
// order, and the drain removes them.
func TestSubmitDrainOrder(t *testing.T) {
	p := New(Options{})
	for i := 0; i < 10; i++ {
		l, d := reqN(i)
		if err := p.Submit(l, d); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if got := p.Len(); got != 10 {
		t.Fatalf("Len = %d, want 10", got)
	}
	out := p.Next(4)
	if len(out) != 4 {
		t.Fatalf("Next(4) returned %d requests", len(out))
	}
	for i, rq := range out {
		wantL, wantD := reqN(i)
		if rq.Label != wantL || string(rq.Data) != string(wantD) {
			t.Fatalf("drain[%d] = %s/%q, want %s/%q", i, rq.Label, rq.Data, wantL, wantD)
		}
	}
	// The drained slots sit in the queue's dead prefix until it is
	// compacted; they must not keep the drained data reachable.
	for i, dead := range p.queue[:p.head] {
		if dead.Label != "" || dead.Data != nil {
			t.Fatalf("drained slot %d still holds %s/%q", i, dead.Label, dead.Data)
		}
	}
	out = p.Next(100)
	if len(out) != 6 {
		t.Fatalf("second drain returned %d requests, want 6", len(out))
	}
	if l, _ := reqN(4); out[0].Label != l {
		t.Fatalf("second drain starts at %s, want %s", out[0].Label, l)
	}
	if p.Len() != 0 {
		t.Fatalf("pool not empty after full drain: %d", p.Len())
	}
}

// TestDedup: a duplicate submission is rejected while queued AND after it
// drained (the seen cache persists past the drain), with the counters
// recording both.
func TestDedup(t *testing.T) {
	p := New(Options{})
	l, d := reqN(0)
	if err := p.Submit(l, d); err != nil {
		t.Fatal(err)
	}
	if err := p.Submit(l, d); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("queued duplicate: err = %v, want ErrDuplicate", err)
	}
	p.Next(10) // drain it — embedded in a block now
	if err := p.Submit(l, d); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("drained duplicate: err = %v, want ErrDuplicate", err)
	}
	// Same label, different data is a different request.
	if err := p.Submit(l, []byte("other")); err != nil {
		t.Fatalf("distinct request rejected: %v", err)
	}
	s := p.Stats()
	if s.Duplicates != 2 || s.Accepted != 2 || s.Submitted != 4 {
		t.Fatalf("stats = %+v, want 2 duplicates / 2 accepted / 4 submitted", s)
	}
}

// TestDedupEvictionDeterminism: the seen cache evicts strictly oldest
// first — insertion order, never map order — so exactly the predicted
// keys become resubmittable, identically on every run. Each submission is
// drained at once, so only the seen cache decides.
func TestDedupEvictionDeterminism(t *testing.T) {
	for run := 0; run < 2; run++ {
		p := New(Options{Capacity: 4}) // a window of 8
		submit := func(i int) error {
			l, d := reqN(i)
			defer p.Next(4)
			return p.Submit(l, d)
		}
		for i := 0; i < 12; i++ { // window 8: keys 0..3 evicted, oldest first
			if err := submit(i); err != nil {
				t.Fatalf("run %d: submit %d: %v", run, i, err)
			}
		}
		// The evicted oldest four readmit; each readmission evicts the
		// then-oldest survivor, which is 4, then 5, 6, 7 — in that order.
		for i := 0; i < 4; i++ {
			if err := submit(i); err != nil {
				t.Fatalf("run %d: readmit evicted %d: %v", run, i, err)
			}
		}
		// 8..11 are the youngest survivors: still remembered.
		for i := 8; i < 12; i++ {
			if err := submit(i); !errors.Is(err, ErrDuplicate) {
				t.Fatalf("run %d: resubmit remembered %d: err = %v, want ErrDuplicate", run, i, err)
			}
		}
		// 4..7 were evicted (oldest first) by the readmissions above.
		for i := 4; i < 8; i++ {
			if err := submit(i); err != nil {
				t.Fatalf("run %d: readmit evicted %d: %v", run, i, err)
			}
		}
	}
}

// TestDedupEvictionBounded: the cache never exceeds its window, twice the
// capacity.
func TestDedupEvictionBounded(t *testing.T) {
	p := New(Options{Capacity: 8})
	for i := 0; i < 1000; i++ {
		l, d := reqN(i)
		if err := p.Submit(l, d); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		p.Next(8)
		if n := p.seen.Len(); n > 16 {
			t.Fatalf("seen cache grew to %d entries, window 16", n)
		}
	}
}

// TestBackpressure: a full pool refuses with ErrFull, and draining reopens
// admission.
func TestBackpressure(t *testing.T) {
	p := New(Options{Capacity: 8})
	for i := 0; i < 8; i++ {
		l, d := reqN(i)
		if err := p.Submit(l, d); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	l, d := reqN(100)
	if err := p.Submit(l, d); !errors.Is(err, ErrFull) {
		t.Fatalf("submit on full pool: err = %v, want ErrFull", err)
	}
	if s := p.Stats(); s.Overflow != 1 {
		t.Fatalf("Overflow = %d, want 1", s.Overflow)
	}
	p.Next(4)
	if err := p.Submit(l, d); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestValidation: the built-in size and label checks reject before
// admission.
func TestValidation(t *testing.T) {
	p := New(Options{MaxRequestBytes: 8, MaxLabelBytes: 4})
	cases := []struct {
		label types.Label
		data  []byte
		want  error
	}{
		{"", []byte("x"), ErrEmptyLabel},
		{"toolong", []byte("x"), ErrTooLarge},
		{"ok", []byte("123456789"), ErrTooLarge},
		{"ok", []byte("fine"), nil},
	}
	for _, tc := range cases {
		err := p.Submit(tc.label, tc.data)
		if !errors.Is(err, tc.want) {
			t.Errorf("Submit(%q, %q) = %v, want %v", tc.label, tc.data, err, tc.want)
		}
	}
	if s := p.Stats(); s.Invalid != 3 || s.Accepted != 1 {
		t.Fatalf("stats = %+v, want 3 invalid / 1 accepted", s)
	}
}

// TestDrainByteBudget: Next stops before the cumulative payload exceeds
// the drain budget, but always yields at least one request — and a block
// built from any drain survives the decode-side payload check of every
// correct peer (block.MaxPayloadBytes): a builder that sealed a bigger one
// would be partitioned for good. The last three cases run at the default
// budget, block.MaxProducerPayloadBytes — the one every server's pool
// drains against.
func TestDrainByteBudget(t *testing.T) {
	// big lifts the per-request limit to the drain budget (applyDefaults
	// clamps it there), so requests near the budget are admitted.
	big := Options{MaxRequestBytes: block.MaxPayloadBytes}
	for _, tc := range []struct {
		name   string
		opts   Options
		sizes  []int // data bytes per submitted request; labels are "r/<i>"
		drains []int // requests each successive Next(256) must return
	}{
		// Three requests of ~1/2 budget each: any two fit, three do not.
		{"half-budget requests", big, slices.Repeat([]int{block.MaxProducerPayloadBytes/2 - 64}, 3), []int{2, 1}},
		// The largest request the pool admits — the budget less the room
		// reserved for a maximal label — is still embeddable.
		{"one request at the limit", big, []int{block.MaxProducerPayloadBytes - DefaultMaxLabelBytes}, []int{1}},
		// 8 MiB queued, twice the decode budget.
		{"maximal drain", big, slices.Repeat([]int{1 << 20}, 8), []int{3, 3, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(tc.opts)
			for i, size := range tc.sizes {
				if err := p.Submit(types.Label(fmt.Sprintf("r/%d", i)), make([]byte, size)); err != nil {
					t.Fatalf("submit %d: %v", i, err)
				}
			}
			next := 0
			for k, want := range tc.drains {
				out := p.Next(256)
				if len(out) != want {
					t.Fatalf("drain %d returned %d requests, want %d", k, len(out), want)
				}
				if out[0].Label != types.Label(fmt.Sprintf("r/%d", next)) {
					t.Fatalf("drain %d starts at %s, want r/%d (FIFO)", k, out[0].Label, next)
				}
				next += len(out)
				// Decode enforces the payload budget structurally and does
				// not verify signatures, so an unsealed block exercises it.
				if _, err := block.Decode(block.New(0, 0, nil, out).Encode()); err != nil {
					t.Fatalf("block built from drain %d does not decode: %v", k, err)
				}
			}
			if p.Len() != 0 {
				t.Fatalf("%d requests left after the expected drains", p.Len())
			}
		})
	}
	// One byte more might not fit a drain beside its label: it is refused
	// at Submit, so the queue head always fits and Next's at-least-one
	// guarantee cannot blow the budget.
	p := New(big)
	if err := p.Submit("r/0", make([]byte, block.MaxProducerPayloadBytes-DefaultMaxLabelBytes+1)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Submit(over the limit) = %v, want ErrTooLarge", err)
	}
	if p.Len() != 0 {
		t.Fatal("oversized request was queued")
	}
}

// TestRequeueFront: requeued requests come back at the front, in order,
// ahead of later admissions.
func TestRequeueFront(t *testing.T) {
	p := New(Options{})
	for i := 0; i < 4; i++ {
		l, d := reqN(i)
		if err := p.Submit(l, d); err != nil {
			t.Fatal(err)
		}
	}
	full := p.Bytes()
	drained := p.Next(2) // 0, 1
	if got, want := p.Bytes(), full-payloadBytes(drained[0])-payloadBytes(drained[1]); got != want {
		t.Fatalf("Bytes after a drain = %d, want %d", got, want)
	}
	p.Requeue(drained)
	if got := p.Bytes(); got != full {
		t.Fatalf("Bytes after the requeue = %d, want %d", got, full)
	}
	out := p.Next(10)
	if len(out) != 4 {
		t.Fatalf("drained %d, want 4", len(out))
	}
	if got := p.Bytes(); got != 0 {
		t.Fatalf("Bytes of an empty pool = %d", got)
	}
	for i, rq := range out {
		if want, _ := reqN(i); rq.Label != want {
			t.Fatalf("position %d: %s, want %s", i, rq.Label, want)
		}
	}
}

// TestRequeueIdempotent is the withheld-broadcast regression: repeated
// requeues of the same drain (a persist-failure loop) must not duplicate
// requests in a later drain.
func TestRequeueIdempotent(t *testing.T) {
	p := New(Options{})
	for i := 0; i < 3; i++ {
		l, d := reqN(i)
		if err := p.Submit(l, d); err != nil {
			t.Fatal(err)
		}
	}
	drained := p.Next(10)
	p.Requeue(drained)
	p.Requeue(drained) // the failure loop requeues again
	p.Requeue(drained)
	if got := p.Len(); got != 3 {
		t.Fatalf("Len after triple requeue = %d, want 3", got)
	}
	out := p.Next(10)
	if len(out) != 3 {
		t.Fatalf("drained %d after triple requeue, want 3", len(out))
	}
	seen := map[types.Label]bool{}
	for _, rq := range out {
		if seen[rq.Label] {
			t.Fatalf("request %s duplicated in drain", rq.Label)
		}
		seen[rq.Label] = true
	}
	if s := p.Stats(); s.Requeued != 3 {
		t.Fatalf("Requeued = %d, want 3 (idempotent)", s.Requeued)
	}
}

// TestRequeueOverCapacity: requeue bypasses the capacity bound — accepted
// requests must never be dropped — while fresh submissions still see it.
func TestRequeueOverCapacity(t *testing.T) {
	p := New(Options{Capacity: 4})
	for i := 0; i < 4; i++ {
		l, d := reqN(i)
		if err := p.Submit(l, d); err != nil {
			t.Fatal(err)
		}
	}
	drained := p.Next(2)
	// Refill the freed slots, then requeue: depth goes over capacity.
	for i := 4; i < 6; i++ {
		l, d := reqN(i)
		if err := p.Submit(l, d); err != nil {
			t.Fatal(err)
		}
	}
	p.Requeue(drained)
	if got := p.Len(); got != 6 {
		t.Fatalf("Len = %d, want 6 (requeue exempt from capacity)", got)
	}
	if l, d := reqN(7); !errors.Is(p.Submit(l, d), ErrFull) {
		t.Fatal("fresh submission above capacity should see ErrFull")
	}
}

// TestSubmitCopiesData: the pool must not alias caller buffers.
func TestSubmitCopiesData(t *testing.T) {
	p := New(Options{})
	buf := []byte("original")
	if err := p.Submit("l", buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "CLOBBERED")
	out := p.Next(1)
	if string(out[0].Data) != "original" {
		t.Fatalf("pool aliased the caller's buffer: %q", out[0].Data)
	}
}

// TestConcurrentStress drives parallel submitters against a concurrent
// drain/requeue loop under -race, then checks conservation: every
// accepted request is drained exactly once.
func TestConcurrentStress(t *testing.T) {
	p := New(Options{Capacity: 1 << 12})
	const (
		submitters = 8
		perWorker  = 500
	)
	var wg sync.WaitGroup
	var acceptedTotal sync.Map // label -> struct{}
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				label := types.Label(fmt.Sprintf("w%d/%d", w, i))
				if err := p.Submit(label, []byte("x")); err == nil {
					acceptedTotal.Store(label, struct{}{})
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	drained := make(map[types.Label]int)
	var drainWG sync.WaitGroup
	drainWG.Add(1)
	go func() {
		defer drainWG.Done()
		requeued := false
		for {
			batch := p.Next(64)
			for _, rq := range batch {
				drained[rq.Label]++
			}
			if len(batch) > 0 && !requeued {
				// Exercise the withhold path once mid-stress: put a
				// batch back and forget we drained it.
				for _, rq := range batch {
					drained[rq.Label]--
				}
				p.Requeue(batch)
				requeued = true
			}
			select {
			case <-stop:
				if p.Len() == 0 {
					return
				}
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	drainWG.Wait()

	accepted := 0
	acceptedTotal.Range(func(k, _ any) bool {
		accepted++
		if drained[k.(types.Label)] != 1 {
			t.Errorf("request %v drained %d times, want exactly 1", k, drained[k.(types.Label)])
			return false
		}
		return true
	})
	s := p.Stats()
	if int(s.Accepted) != accepted {
		t.Fatalf("Accepted = %d, but %d submissions reported success", s.Accepted, accepted)
	}
	if s.Drained != s.Accepted+s.Requeued {
		t.Fatalf("Drained = %d, want Accepted+Requeued = %d", s.Drained, s.Accepted+s.Requeued)
	}
}

// TestOptionsClampedToDecodeBudget is the regression for misconfigured
// deployments: the per-request limits must never exceed the drain budget,
// which sits under the network-wide decode budget, or Next would feed Disseminate a block
// every correct peer discards (block.ErrPayloadTooLarge) — permanently
// partitioning the builder.
func TestOptionsClampedToDecodeBudget(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"defaults", Options{}},
		{"request over budget", Options{MaxRequestBytes: block.MaxPayloadBytes + 1}},
		{"label over budget", Options{MaxLabelBytes: 2 * block.MaxPayloadBytes}},
		{"both over budget", Options{
			MaxRequestBytes: 2 * block.MaxPayloadBytes,
			MaxLabelBytes:   block.MaxPayloadBytes,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.opts
			o.applyDefaults()
			if max := o.MaxLabelBytes + o.MaxRequestBytes; max > drainBytes {
				t.Errorf("MaxLabelBytes+MaxRequestBytes = %d, exceeds the drain budget %d — "+
					"a single admitted request cannot fit a drain", max, drainBytes)
			}
			// The pool built from these options must reject any request
			// it could not embed in a decodable block.
			p := New(tc.opts)
			over := make([]byte, block.MaxPayloadBytes)
			if err := p.Submit("l", over); !errors.Is(err, ErrTooLarge) {
				t.Errorf("Submit(decode-budget-sized request) = %v, want ErrTooLarge", err)
			}
		})
	}
}

// retainedPerSeenKeyBound is what the seen cache may keep per key of its
// window once it has rolled over: the 32-byte key and its length byte in
// the arena, its offset and its slot of the table, and the keys evicted
// since the arena was last compacted. Measured: 86 B; 112 B while the cache
// was a map beside a FIFO slice of the keys.
const retainedPerSeenKeyBound = 103

// TestRetainedPerSeenKey: a pool whose window has rolled over three times —
// every request drained at once, so the queue holds nothing — keeps at most
// retainedPerSeenKeyBound bytes a key of its window.
func TestRetainedPerSeenKey(t *testing.T) {
	const capacity = 2048
	window := 2 * capacity
	requests := make([]block.Request, 3*window)
	for i := range requests {
		l, d := reqN(i)
		requests[i] = block.Request{Label: l, Data: d}
	}
	before := dagtest.LiveHeap()
	p := New(Options{Capacity: capacity})
	for _, rq := range requests {
		if err := p.Submit(rq.Label, rq.Data); err != nil {
			t.Fatal(err)
		}
		p.Next(1)
	}
	retained := float64(dagtest.LiveHeap()) - float64(before)
	runtime.KeepAlive(requests)
	if p.seen.Len() != window {
		t.Fatalf("seen cache holds %d keys, window %d", p.seen.Len(), window)
	}
	perKey := retained / float64(window)
	t.Logf("%.1f B retained per seen key", perKey)
	if perKey > retainedPerSeenKeyBound {
		t.Fatalf("the seen cache keeps %.1f B a key, want at most %d", perKey, retainedPerSeenKeyBound)
	}
}
