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

// scheduleWorkload is one of dagbench's named workloads at n = 4: its
// arrival rate, request payload and block period (the rows of
// bench/workload.go, copied).
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
	blocks   int64         // blocks built by the four nodes
}

func (r scheduleRun) String() string {
	return fmt.Sprintf("p50 %.1f ms p90 %.1f ms, %d blocks", ms(r.p50), ms(r.p90), r.blocks)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runProductionSchedule runs wl at n = 4 on the schedule a started node keeps,
// on the virtual clock: node i's period turn, Tick then Disseminate, at i/n
// of a period, and node 0's full-block turn after each submit, as the wake
// Submit leaves runs it.
// Links are 100 ± 50 µs. Every turn and arrival is scheduled up front, then
// the network runs once. crashAt, if positive, is when node n − 1 loses
// power (Cluster.Crash); it takes no turn after that.
func runProductionSchedule(t *testing.T, wl scheduleWorkload, seed int64, crashAt time.Duration) scheduleRun {
	t.Helper()
	const n = 4
	c, err := New(Options{N: n, Protocol: brb.Protocol{}, Seed: seed, Interval: wl.period,
		Latency: 100 * time.Microsecond, Jitter: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer stopAll(c)

	end := scheduleWarmup + scheduleWindow + scheduleDrain
	var ticks int64
	for i := range c.Nodes {
		phase := time.Duration(i) * wl.period / n
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
	if crashAt > 0 {
		c.Net.After(crashAt, func() { c.Crash(n - 1) })
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

// TestLatencyOnTheProductionSchedule pins the latency dagbench's steady,
// dense and sparse workloads read on the virtual clock, seeds 1–3, and the
// blocks the cluster built: a change to when a node builds its blocks moves
// these figures, exactly, with no noise. Every block is the tick's, a full
// seal or an answer, and the counters say which.
func TestLatencyOnTheProductionSchedule(t *testing.T) {
	want := map[string][]string{
		"steady": {
			"p50 250.8 ms p90 290.6 ms, 1000 blocks",
			"p50 249.7 ms p90 289.9 ms, 1000 blocks",
			"p50 250.8 ms p90 290.4 ms, 1000 blocks",
		},
		"dense": {
			"p50 151.7 ms p90 214.0 ms, 1491 blocks",
			"p50 150.9 ms p90 214.7 ms, 1492 blocks",
			"p50 159.7 ms p90 223.9 ms, 1487 blocks",
		},
		"sparse": {
			"p50 246.1 ms p90 290.3 ms, 1000 blocks",
			"p50 252.4 ms p90 292.3 ms, 1000 blocks",
			"p50 256.0 ms p90 291.4 ms, 1000 blocks",
		},
	}
	for _, wl := range scheduleWorkloads {
		for seed := int64(1); seed <= 3; seed++ {
			run := runProductionSchedule(t, wl, seed, 0)
			t.Logf("%-6s seed %d: %v", wl.name, seed, run)
			if got := run.String(); got != want[wl.name][seed-1] {
				t.Errorf("%s seed %d read %q, want %q", wl.name, seed, got, want[wl.name][seed-1])
			}
		}
	}
}

// TestLatencyWithACrashedPeer pins dagbench's dense workload on the
// production schedule, seeds 1–3, with node 3 crashed at 1 s, before the
// window opens: the three live nodes are a quorum, n − f, so a loaded node
// still answers the blocks of its two live peers. A rule that waited for
// every peer's block would answer nothing once node 3 is down.
func TestLatencyWithACrashedPeer(t *testing.T) {
	want := []string{
		"p50 131.3 ms p90 221.6 ms, 1130 blocks",
		"p50 140.3 ms p90 229.1 ms, 1125 blocks",
		"p50 146.0 ms p90 233.4 ms, 1124 blocks",
	}
	dense := scheduleWorkloads[1]
	for seed := int64(1); seed <= 3; seed++ {
		run := runProductionSchedule(t, dense, seed, time.Second)
		t.Logf("%s seed %d, node 3 crashed at 1s: %v", dense.name, seed, run)
		if got := run.String(); got != want[seed-1] {
			t.Errorf("%s seed %d, node 3 crashed at 1s, read %q, want %q", dense.name, seed, got, want[seed-1])
		}
	}
}
