package deploy

import (
	"runtime"
	"testing"
	"time"

	"blockdag/internal/metrics"
	"blockdag/internal/roster"
)

// TestAnIdleClusterStopsBuildingOverTCP: four started nodes on loopback, at
// the default block period, deliver one request, then sit idle. After the
// last indication, once the nodes have read what their last blocks sent,
// blocks built and the live heap stop growing: over 50 periods not a block
// is built, and the heap after a collection grows by less than 64 KiB.
func TestAnIdleClusterStopsBuildingOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test with real sockets")
	}
	const n = 4
	fx, err := roster.Dev(n)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]*member, n)
	for i := range members {
		members[i] = listen(t, fx, i, Config{})
	}
	for _, m := range members {
		if err := m.Boot(addrs(members)); err != nil {
			t.Fatal(err)
		}
	}
	members[0].Node.Request("lone", []byte("v"))
	waitFor(t, 10*time.Second, "every node to deliver the request", func() bool {
		for _, m := range members {
			if !m.has("lone") {
				return false
			}
		}
		return true
	})
	built := func() (sum int64) {
		for _, m := range members {
			sum += m.Node.Server().Counts().Get(metrics.BlocksBuilt)
		}
		return sum
	}
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	// The blocks that read what the last ones sent go out within a few
	// periods of the last indication.
	last := built()
	waitFor(t, 10*time.Second, "the cluster to stop building", func() bool {
		time.Sleep(10 * disseminateEvery)
		now := built()
		defer func() { last = now }()
		return now == last
	})
	before, heapBefore := built(), heap()
	time.Sleep(50 * disseminateEvery)
	after, heapAfter := built(), heap()
	t.Logf("idle for 50 periods: %d blocks built, heap %d → %d B", after-before, heapBefore, heapAfter)
	if after != before {
		t.Fatalf("an idle cluster built %d blocks in 50 periods", after-before)
	}
	if heapAfter > heapBefore+64<<10 {
		t.Fatalf("an idle cluster's live heap grew %d → %d B in 50 periods", heapBefore, heapAfter)
	}
	for i, m := range members {
		if err := m.Node.Err(); err != nil {
			t.Fatalf("node %d unhealthy: %v", i, err)
		}
	}
}
