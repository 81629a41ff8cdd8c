package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"blockdag/internal/metrics"
	"blockdag/internal/protocols/brb"
	"blockdag/internal/types"
)

// scheduleWorkload is one of dagbench's named workloads: its arrival rate,
// request payload and block period (the rows of bench/workload.go, copied).
type scheduleWorkload struct {
	name    string
	rate    float64 // requests a second, all at node 0
	payload int     // bytes of value a request
	period  time.Duration
}

var scheduleWorkloads = []scheduleWorkload{
	{"steady", 100, 32, 100 * time.Millisecond},
	{"dense", 150, 256, 200 * time.Millisecond},
	{"sparse", 10, 32, 100 * time.Millisecond},
}

const (
	scheduleWarmup = 3 * time.Second
	scheduleWindow = 20 * time.Second
	// scheduleDrain keeps the turns running after the window, so the
	// window's last requests are indicated.
	scheduleDrain = 2 * time.Second
)

// scheduleArrival is one open-loop request: due at an offset from the start.
type scheduleArrival struct {
	due   time.Duration
	label types.Label
	value []byte
}

// scheduleArrivals is dagbench's arrival schedule for a seed: per phase, a
// Poisson process at rate conditioned on its count (exactly rate × length
// arrivals, exponential gaps scaled to fill the phase), each request with a
// fresh label and payload random bytes.
func scheduleArrivals(seed int64, rate float64, payload int, phases ...time.Duration) []scheduleArrival {
	rng := rand.New(rand.NewSource(seed))
	var out []scheduleArrival
	begin := time.Duration(0)
	for _, length := range phases {
		count := int(math.Round(rate * length.Seconds()))
		gaps := make([]float64, count+1) // the last gap runs to the end of the phase
		var sum float64
		for i := range gaps {
			gaps[i] = rng.ExpFloat64()
			sum += gaps[i]
		}
		var at float64
		for _, gap := range gaps[:count] {
			at += gap
			value := make([]byte, payload)
			rng.Read(value)
			out = append(out, scheduleArrival{
				due:   begin + time.Duration(at/sum*float64(length)),
				label: types.Label(fmt.Sprintf("q%x/%d", uint64(seed), len(out))),
				value: value,
			})
		}
		begin += length
	}
	return out
}

// scheduleRun is what one run on the production schedule read.
type scheduleRun struct {
	p50, p90 time.Duration // due time to node 0's indication, over the window
	blocks   int64         // blocks built by the n nodes
}

func (r scheduleRun) String() string {
	return fmt.Sprintf("p50 %.1f ms p90 %.1f ms, %d blocks", ms(r.p50), ms(r.p90), r.blocks)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runProductionSchedule runs wl at n nodes on the schedule a started node
// keeps, on the virtual clock: node i's period turn, Tick then Disseminate,
// at i/n of a period, and node 0's full-block turn after each submit, as the
// wake Submit leaves runs it.
// Links are 100 ± 50 µs. Every turn and arrival is scheduled up front, then
// the network runs once. fault, if not nil, is applied to the cluster
// before that: a crash (crashLast) or a filter on the links (latePeer).
func runProductionSchedule(t testing.TB, wl scheduleWorkload, n int, seed int64, fault func(*Cluster, scheduleWorkload)) scheduleRun {
	t.Helper()
	c, err := New(Options{N: n, Protocol: brb.Protocol{}, Seed: seed, Interval: wl.period,
		Latency: 100 * time.Microsecond, Jitter: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)

	end := scheduleWarmup + scheduleWindow + scheduleDrain
	var ticks int64
	for i := range c.Nodes {
		phase := time.Duration(i) * wl.period / time.Duration(n)
		for at := phase; at < end; at += wl.period {
			c.Net.After(at, func() {
				if nd := c.Nodes[i]; nd != nil {
					nd.Tick()
					nd.Disseminate()
					ticks++
				}
			})
		}
	}
	if fault != nil {
		fault(c, wl)
	}
	arrivals := scheduleArrivals(seed, wl.rate, wl.payload, scheduleWarmup, scheduleWindow)
	for _, a := range arrivals {
		c.Net.After(a.due, func() {
			if err := c.Nodes[0].Submit(a.label, a.value); err != nil {
				t.Errorf("submit %s: %v", a.label, err)
			}
			c.Nodes[0].DisseminateIfFull()
		})
	}
	c.Net.Run()
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}

	indicatedAt := make(map[types.Label]time.Duration)
	for _, ind := range c.Indications(0) {
		indicatedAt[ind.Label] = ind.At
	}
	var took []time.Duration
	for _, a := range arrivals {
		if a.due < scheduleWarmup {
			continue
		}
		at, ok := indicatedAt[a.label]
		if !ok {
			t.Fatalf("%s seed %d: %s (due %v) was never indicated at node 0", wl.name, seed, a.label, a.due)
		}
		took = append(took, at-a.due)
	}
	slices.Sort(took)
	run := scheduleRun{p50: took[len(took)/2], p90: took[len(took)*9/10]}
	early := int64(0) // blocks built for a reason other than the tick
	for _, m := range c.Metrics {
		run.blocks += m.Get(metrics.BlocksBuilt)
		early += m.Get(metrics.BlocksSealedFull) + m.Get(metrics.BlocksAnswered)
	}
	if run.blocks-early != ticks {
		t.Errorf("%s seed %d: %d blocks built, %d of them early, but %d ticks", wl.name, seed, run.blocks, early, ticks)
	}
	return run
}

// crashLast crashes node n − 1 at 1 s (Cluster.Crash), before the window
// opens: it takes no turn after that.
func crashLast(c *Cluster, _ scheduleWorkload) {
	c.Net.After(time.Second, func() { c.Crash(len(c.Nodes) - 1) })
}

// latePeer makes node n − 1 a live peer whose answers never arrive: its
// sends pass only within 2 ms after its period turn, long enough for its
// tick's block and for the replies that fill in the dropped answers that
// block cites, and are dropped at any other time.
func latePeer(c *Cluster, wl scheduleWorkload) {
	n := len(c.Nodes)
	late, phase := types.ServerID(n-1), time.Duration(n-1)*wl.period/time.Duration(n)
	c.Net.SetPartition(func(from, _ types.ServerID) bool {
		since := c.Net.Now() - phase
		return from == late && (since < 0 || since%wl.period >= 2*time.Millisecond)
	})
}

// pinSchedule runs wl at n nodes for each seed from 1 on, under fault, and
// checks each run against its row of want. what names the runs in the log.
func pinSchedule(t *testing.T, wl scheduleWorkload, n int, fault func(*Cluster, scheduleWorkload), what string, want ...string) {
	t.Helper()
	for i, row := range want {
		seed := int64(i + 1)
		run := runProductionSchedule(t, wl, n, seed, fault)
		t.Logf("%-6s seed %d%s: %v", wl.name, seed, what, run)
		if got := run.String(); got != row {
			t.Errorf("%s seed %d%s read %q, want %q", wl.name, seed, what, got, row)
		}
	}
}

// TestLatencyOnTheProductionSchedule pins the latency dagbench's steady,
// dense and sparse workloads read on the virtual clock at n = 4, seeds 1–3,
// and the blocks the cluster built: a change to when a node builds its
// blocks moves these figures, exactly, with no noise. Every block is the
// tick's, a full seal or an answer, and the counters say which.
func TestLatencyOnTheProductionSchedule(t *testing.T) {
	want := map[string][]string{
		"steady": {
			"p50 250.8 ms p90 290.6 ms, 1000 blocks",
			"p50 249.7 ms p90 289.9 ms, 1000 blocks",
			"p50 250.8 ms p90 290.4 ms, 1000 blocks",
		},
		"dense": {
			"p50 127.7 ms p90 198.1 ms, 1709 blocks",
			"p50 126.6 ms p90 197.7 ms, 1723 blocks",
			"p50 127.4 ms p90 197.8 ms, 1714 blocks",
		},
		"sparse": {
			"p50 246.1 ms p90 290.3 ms, 1000 blocks",
			"p50 252.4 ms p90 292.3 ms, 1000 blocks",
			"p50 256.0 ms p90 291.4 ms, 1000 blocks",
		},
	}
	for _, wl := range scheduleWorkloads {
		pinSchedule(t, wl, 4, nil, "", want[wl.name]...)
	}
}

// TestLatencyWithACrashedPeer pins dagbench's dense workload on the
// production schedule, seeds 1–3, with node 3 crashed at 1 s, before the
// window opens: the three live nodes are a quorum, n − f, so a loaded node
// still answers the blocks of its two live peers. A rule that waited for
// every peer's block would answer nothing once node 3 is down.
func TestLatencyWithACrashedPeer(t *testing.T) {
	pinSchedule(t, scheduleWorkloads[1], 4, crashLast, ", node 3 crashed at 1s",
		"p50 125.9 ms p90 207.6 ms, 1369 blocks",
		"p50 151.4 ms p90 216.1 ms, 1346 blocks",
		"p50 126.0 ms p90 206.0 ms, 1368 blocks",
	)
}

// TestLatencyWithALatePeer pins dagbench's dense workload on the production
// schedule, seeds 1–3, with node 3 live but late (latePeer): its period
// turn's block arrives, its answers never do. A loaded node answers a quorum
// of the three others without it. A rule that waits for the last peer waits
// on node 3 at every node at once, and no delivery arrives to end the wait:
// such a rule has to read below these rows to replace the quorum rule.
func TestLatencyWithALatePeer(t *testing.T) {
	pinSchedule(t, scheduleWorkloads[1], 4, latePeer, ", node 3 late",
		"p50 124.5 ms p90 199.0 ms, 1698 blocks",
		"p50 128.1 ms p90 194.6 ms, 1701 blocks",
		"p50 126.5 ms p90 198.1 ms, 1696 blocks",
	)
}

// TestLatencyAtSevenNodes pins dagbench's dense workload on the production
// schedule at n = 7, seed 1: a full block is the same payload at every n, so
// the latency no longer grows with the roster as the fill wait did.
func TestLatencyAtSevenNodes(t *testing.T) {
	pinSchedule(t, scheduleWorkloads[1], 7, nil, ", n = 7",
		"p50 135.5 ms p90 196.9 ms, 2774 blocks",
	)
}

// BenchmarkLatencyInN reads dense on the production schedule at n = 10 and
// n = 16, seed 1: the rows of ARCHITECTURE's "When a node builds a block",
// too slow for tier 1 (≈ 5 s and ≈ 19 s). Run it once:
//
//	go test -run '^$' -bench LatencyInN -benchtime 1x -v ./internal/cluster
func BenchmarkLatencyInN(b *testing.B) {
	dense := scheduleWorkloads[1]
	for _, n := range []int{10, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for range b.N {
				run := runProductionSchedule(b, dense, n, 1, nil)
				b.Logf("%s seed 1, n = %d: %v", dense.name, n, run)
				b.ReportMetric(ms(run.p50), "p50-ms")
				b.ReportMetric(ms(run.p90), "p90-ms")
			}
		})
	}
}
