package direct_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"blockdag/internal/cluster"
	"blockdag/internal/direct"
	"blockdag/internal/metrics"
	"blockdag/internal/protocol"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/protocols/pbft"
	"blockdag/internal/simnet"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

// request is one entry of a request schedule: server submits (label, data)
// at the given instant of simulated time.
type request struct {
	at     time.Duration
	server int
	label  types.Label
	data   []byte
}

// longAfter is when a schedule's last requests are due: long after every
// server has indicated for every label and every run has gone quiet.
const longAfter = time.Hour

// randomSchedule draws a request schedule whose outcome P fixes whatever
// the network does, so two runs of it are comparable: every label has one
// requester (for pbft the instance's leader, or nothing would terminate),
// which now and then asks again with another value (ignored: an instance
// broadcasts or proposes once) and, for every other label, once more
// longAfter (ignored: by then the interpreter holds nothing of the instance
// but the label in its retired set), and for pbft other servers put in
// requests of their own (ignored: only the leader's counts).
func randomSchedule(rng *rand.Rand, proto protocol.Protocol, n, labels int, span time.Duration) []request {
	var schedule []request
	add := func(at time.Duration, server int, label types.Label, tag string) {
		schedule = append(schedule, request{at, server, label, []byte(fmt.Sprintf("%s/%s/%d", label, tag, rng.Intn(1000)))})
	}
	for i := 0; i < labels; i++ {
		label := types.Label(fmt.Sprintf("%s/%d", proto.Name(), i))
		requester := rng.Intn(n)
		if proto.Name() == "pbft" {
			requester = int(pbft.Leader(label, n))
			if rng.Intn(2) == 0 {
				add(time.Duration(rng.Int63n(int64(span))), (requester+1+rng.Intn(n-1))%n, label, "not-the-leader")
			}
		}
		at := time.Duration(rng.Int63n(int64(span)))
		add(at, requester, label, "first")
		if rng.Intn(3) == 0 {
			add(at+time.Duration(1+rng.Int63n(int64(span))), requester, label, "again")
		}
		if i%2 == 0 {
			add(longAfter, requester, label, "long-after")
		}
	}
	return schedule
}

// indicated is what one run indicated: per server and label, the values in
// the order they came. Labels are independent instances of P, and which of
// two labels a server hears of first belongs to the schedule of the
// network, not to P — the order within a label is what the two runs share.
type indicated map[string][][]byte

func indicatedKey(server int, label types.Label) string {
	return fmt.Sprintf("s%d %s", server, label)
}

// runDirect runs P over signed point-to-point messages with randomly
// delayed delivery: the run of Theorem 5.1's right-hand side, in which no
// instance is ever retired and every message P emits is delivered.
func runDirect(t *testing.T, proto protocol.Protocol, n int, schedule []request, seed int64) indicated {
	net := simnet.New(simnet.WithSeed(seed), simnet.WithLatency(2*time.Millisecond, 40*time.Millisecond))
	c, err := direct.NewCluster(proto, n,
		func(id types.ServerID) transport.Transport { return net.Transport(id) },
		func(id types.ServerID, ep transport.Endpoint) { net.Register(id, transport.ChanGossip, ep) },
		nil,
	)
	if err != nil {
		t.Fatal(err)
	}
	for _, rq := range schedule {
		net.After(rq.at, func() { c.Servers[rq.server].Request(rq.label, rq.data) })
	}
	net.Run()
	out := make(indicated)
	for s := 0; s < n; s++ {
		for _, rq := range schedule {
			if values := c.Delivered(s, rq.label); len(values) > 0 {
				out[indicatedKey(s, rq.label)] = values
			}
		}
	}
	return out
}

// runShim runs shim(P): the same schedule submitted to n servers that
// gossip blocks over a network that delays, reorders and drops them, and
// interpret the DAG — retiring every instance that reports Done, and
// replacing a label's tombstones by one retired entry once all n chains have.
func runShim(t *testing.T, proto protocol.Protocol, n int, schedule []request, seed int64, rounds int, interval time.Duration, pairs int) indicated {
	c, err := cluster.New(cluster.Options{
		N: n, Protocol: proto, Seed: seed,
		Latency: 2 * time.Millisecond, Jitter: 3 * interval, Drop: 0.05,
		Interval: interval,
	})
	if err != nil {
		t.Fatal(err)
	}
	labels := make(map[types.Label]bool)
	for _, rq := range schedule {
		labels[rq.label] = true
		if rq.at < longAfter {
			c.Net.After(rq.at, func() { c.Request(rq.server, rq.label, rq.data) })
		}
	}
	collect := func() indicated {
		out := make(indicated)
		for s := 0; s < n; s++ {
			for _, ind := range c.Indications(s) {
				key := indicatedKey(s, ind.Label)
				out[key] = append(out[key], ind.Value)
			}
		}
		return out
	}
	// The rounds of the schedule's span run back to back, blocks of later
	// rounds overtaking earlier ones; then rounds until every pair has
	// indicated (FWD retries take a few), then some more, in which
	// nothing further may be indicated.
	if err := c.RunRounds(rounds); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RunUntil(100, func() bool { return len(collect()) >= pairs }); err != nil {
		t.Fatal(err)
	}
	if err := c.RunRounds(8); err != nil {
		t.Fatal(err)
	}
	// Run on until, at every server, every chain has finished every label:
	// no instance and no tombstone is left to refuse the requests that come
	// now, only the retired set.
	collapsed := func() bool {
		for s := 0; s < n; s++ {
			if m := c.Servers[s].Counts(); m.Get(metrics.InstancesLive) != 0 || m.Get(metrics.InstancesRetired) != 0 || m.Get(metrics.LabelsRetired) != int64(len(labels)) {
				return false
			}
		}
		return true
	}
	if ok, err := c.RunUntil(100, collapsed); err != nil || !ok {
		m := c.Servers[0].Counts()
		t.Fatalf("tombstones did not collapse at every server (err: %v): s0 holds %d live, %d tombstones, %d retired",
			err, m.Get(metrics.InstancesLive), m.Get(metrics.InstancesRetired), m.Get(metrics.LabelsRetired))
	}
	for _, rq := range schedule {
		if rq.at >= longAfter {
			c.Request(rq.server, rq.label, rq.data)
		}
	}
	if err := c.RunRounds(8); err != nil {
		t.Fatal(err)
	}
	return collect()
}

// TestTheorem51Differential: for a deterministic P, the interpreted run of
// shim(P) over the block DAG indicates exactly what a direct run of P over
// point-to-point links indicates — per server and instance, the same
// values in the same order — across random request schedules, random
// arrival orders on both sides (and lost blocks on the DAG side). The
// direct run keeps every instance for ever and
// delivers it every message; the interpreter drops an instance the moment
// it reports Done and discards what it is sent afterwards, so this is also
// the test that retiring changes no indication.
func TestTheorem51Differential(t *testing.T) {
	const (
		n        = 4
		labels   = 10
		rounds   = 8
		interval = 20 * time.Millisecond
	)
	for _, proto := range []protocol.Protocol{brb.Protocol{}, pbft.Protocol{}} {
		for seed := int64(1); seed <= 6; seed++ {
			schedule := randomSchedule(rand.New(rand.NewSource(seed)), proto, n, labels, rounds*interval)
			want := runDirect(t, proto, n, schedule, seed)
			if len(want) != n*labels {
				t.Fatalf("%s seed %d: direct run indicated at %d (server, label) pairs, want %d", proto.Name(), seed, len(want), n*labels)
			}
			got := runShim(t, proto, n, schedule, seed+100, rounds, interval, len(want))
			ctx := fmt.Sprintf("%s seed %d", proto.Name(), seed)
			if len(got) != len(want) {
				t.Fatalf("%s: shim(P) indicated at %d (server, label) pairs, the direct run at %d", ctx, len(got), len(want))
			}
			for key, values := range want {
				if len(got[key]) != len(values) {
					t.Fatalf("%s: %s indicated %d values, the direct run %d", ctx, key, len(got[key]), len(values))
				}
				for i := range values {
					if !bytes.Equal(got[key][i], values[i]) {
						t.Fatalf("%s: %s indication %d is %q, the direct run's %q", ctx, key, i, got[key][i], values[i])
					}
				}
			}
		}
	}
}
