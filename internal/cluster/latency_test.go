package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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
	wire     float64       // gossip bytes (metrics.WireBytes) a request, over the window
}

func (r scheduleRun) String() string {
	return fmt.Sprintf("p50 %.1f ms p90 %.1f ms, %d blocks, %.0f wire B a request", ms(r.p50), ms(r.p90), r.blocks, r.wire)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// scheduled is an n-node cluster on the schedule a started node keeps, on
// the virtual clock: node i's period turn, Tick then Disseminate, at i/n of
// a period until end, and node 0's early turn after each submit, as the wake
// Submit leaves runs it. Links are 100 ± 50 µs. ticks counts the period
// turns that sealed a block: a turn with no reason seals none.
type scheduled struct {
	*Cluster
	ticks int64
}

func newScheduled(t testing.TB, n int, seed int64, period, end time.Duration) *scheduled {
	t.Helper()
	c, err := New(Options{N: n, Protocol: brb.Protocol{}, Seed: seed, Interval: period,
		Latency: 100 * time.Microsecond, Jitter: 50 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	s := &scheduled{Cluster: c}
	for i := range c.Nodes {
		phase := time.Duration(i) * period / time.Duration(n)
		for at := phase; at < end; at += period {
			c.Net.After(at, func() {
				if nd := c.Nodes[i]; nd != nil {
					built := c.Metrics[i].Get(metrics.BlocksBuilt)
					nd.Tick()
					nd.Disseminate()
					if c.Metrics[i].Get(metrics.BlocksBuilt) > built {
						s.ticks++
					}
				}
			})
		}
	}
	return s
}

// submit schedules a at node 0, and the early turn its wake runs.
func (s *scheduled) submit(t testing.TB, a scheduleArrival) {
	s.Net.After(a.due, func() {
		if err := s.Nodes[0].Submit(a.label, a.value); err != nil {
			t.Errorf("submit %s: %v", a.label, err)
		}
		s.Nodes[0].DisseminateEarly()
	})
}

// run runs the network, then checks the cluster's health and that every
// block built is a tick's, a full seal, an answer or an idle seal, as the
// counters say. It returns the blocks built.
func (s *scheduled) run(t testing.TB, what string) int64 {
	t.Helper()
	s.Net.Run()
	if err := s.Health(); err != nil {
		t.Fatal(err)
	}
	var built, early int64
	for _, m := range s.Metrics {
		built += m.Get(metrics.BlocksBuilt)
		early += m.Get(metrics.BlocksSealedFull) + m.Get(metrics.BlocksAnswered) + m.Get(metrics.BlocksSealedIdle)
	}
	if built-early != s.ticks {
		t.Errorf("%s: %d blocks built, %d of them early, but %d ticks", what, built, early, s.ticks)
	}
	return built
}

// wireBytes is the gossip bytes the cluster's nodes have sent so far.
func (s *scheduled) wireBytes() int64 {
	var sum int64
	for _, m := range s.Metrics {
		sum += m.Get(metrics.WireBytes)
	}
	return sum
}

// indicatedAt is when node 0 indicated each label.
func (s *scheduled) indicatedAt() map[types.Label]time.Duration {
	at := make(map[types.Label]time.Duration)
	for _, ind := range s.Indications(0) {
		at[ind.Label] = ind.At
	}
	return at
}

// runProductionSchedule runs wl at n nodes on the production schedule
// (scheduled). Every turn and arrival is scheduled up front, then the network
// runs once. fault, if not nil, is applied to the cluster before that: a
// crash (crashLast) or a filter on the links (latePeer).
func runProductionSchedule(t testing.TB, wl scheduleWorkload, n int, seed int64, fault func(*Cluster, scheduleWorkload)) scheduleRun {
	t.Helper()
	s := newScheduled(t, n, seed, wl.period, scheduleWarmup+scheduleWindow+scheduleDrain)
	defer stopAll(s.Cluster)
	if fault != nil {
		fault(s.Cluster, wl)
	}
	arrivals := scheduleArrivals(seed, wl.rate, wl.payload, scheduleWarmup, scheduleWindow)
	for _, a := range arrivals {
		s.submit(t, a)
	}
	var wire [2]int64
	for i, at := range []time.Duration{scheduleWarmup, scheduleWarmup + scheduleWindow} {
		s.Net.After(at, func() { wire[i] = s.wireBytes() })
	}
	what := fmt.Sprintf("%s seed %d", wl.name, seed)
	run := scheduleRun{blocks: s.run(t, what)}

	indicatedAt := s.indicatedAt()
	var took []time.Duration
	for _, a := range arrivals {
		if a.due < scheduleWarmup {
			continue
		}
		at, ok := indicatedAt[a.label]
		if !ok {
			t.Fatalf("%s: %s (due %v) was never indicated at node 0", what, a.label, a.due)
		}
		took = append(took, at-a.due)
	}
	slices.Sort(took)
	run.p50, run.p90 = took[len(took)/2], took[len(took)*9/10]
	run.wire = float64(wire[1]-wire[0]) / float64(len(took))
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
// tick's, a full seal, an answer or an idle seal, and the counters say which.
// The wire is every node's gossip bytes over the window's requests.
//
// The first request of the warm-up finds the cluster idle: node 0 seals it at
// once and every node that has built answers for a period. That adds 2
// blocks on steady; sparse's requests leave it idle now and then, 7–18
// blocks (≤ 1.8 %). A tick seals only with a reason: the warm-up before the
// first request, the drain after the last and sparse's lulls build nothing,
// while the window's rows of steady and dense, whose instances always
// overlap, read as when every tick sealed. The wake moves which turn later
// answers fall in, so
// dense's rows moved both ways seed by seed: over seeds 1–10, the mean p50
// went 126.7 → 126.8 ms fault-free, 134.7 → 132.0 with node 3 crashed and
// 129.7 → 126.9 with it late, the mean p90 198.5 → 198.0, 208.8 → 208.6 and
// 199.1 → 197.5.
func TestLatencyOnTheProductionSchedule(t *testing.T) {
	want := map[string][]string{
		"steady": {
			"p50 250.8 ms p90 290.6 ms, 933 blocks, 296 wire B a request",
			"p50 249.7 ms p90 289.9 ms, 933 blocks, 296 wire B a request",
			"p50 250.8 ms p90 290.4 ms, 933 blocks, 296 wire B a request",
		},
		"dense": {
			"p50 123.6 ms p90 196.0 ms, 1695 blocks, 1015 wire B a request",
			"p50 125.3 ms p90 196.1 ms, 1685 blocks, 1014 wire B a request",
			"p50 127.4 ms p90 197.8 ms, 1679 blocks, 1013 wire B a request",
		},
		"sparse": {
			"p50 246.1 ms p90 290.3 ms, 892 blocks, 1771 wire B a request",
			"p50 252.4 ms p90 292.3 ms, 879 blocks, 1736 wire B a request",
			"p50 256.0 ms p90 291.4 ms, 871 blocks, 1750 wire B a request",
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
		"p50 128.9 ms p90 208.9 ms, 1342 blocks, 956 wire B a request",
		"p50 122.6 ms p90 205.6 ms, 1370 blocks, 957 wire B a request",
		"p50 126.0 ms p90 206.0 ms, 1368 blocks, 956 wire B a request",
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
		"p50 120.3 ms p90 198.3 ms, 1677 blocks, 1032 wire B a request",
		"p50 128.1 ms p90 194.6 ms, 1667 blocks, 1032 wire B a request",
		"p50 126.5 ms p90 198.1 ms, 1660 blocks, 1031 wire B a request",
	)
}

// TestLatencyAtSevenNodes pins dagbench's dense workload on the production
// schedule at n = 7, seed 1: a full block is the same payload at every n, so
// the latency no longer grows with the roster as the fill wait did.
func TestLatencyAtSevenNodes(t *testing.T) {
	pinSchedule(t, scheduleWorkloads[1], 7, nil, ", n = 7",
		"p50 134.5 ms p90 195.7 ms, 2714 blocks, 2373 wire B a request",
	)
}

// loneRequestPhases is how many submit phases the lone-request rows read:
// one every eighth of a period after node 0's tick.
const loneRequestPhases = 8

// runLoneRequest submits one request at node 0 of an n-node cluster on the
// production schedule at steady's period, 2 s in and phase after node 0's
// tick, the cluster idle until then (its nodes build nothing after their
// first blocks), and
// returns how long node 0 took to indicate it. fault is as for
// runProductionSchedule. With first, node 0 is submitted a request at
// 1.2 s too, which has run out well before 2 s.
func runLoneRequest(t testing.TB, n int, phase time.Duration, fault func(*Cluster, scheduleWorkload), first bool) time.Duration {
	t.Helper()
	steady := scheduleWorkloads[0]
	due := 2*time.Second + phase
	s := newScheduled(t, n, 1, steady.period, due+scheduleDrain)
	defer stopAll(s.Cluster)
	if fault != nil {
		fault(s.Cluster, steady)
	}
	if first {
		s.submit(t, scheduleArrival{due: 1200 * time.Millisecond, label: "first", value: []byte("v")})
	}
	s.submit(t, scheduleArrival{due: due, label: "lone", value: []byte("v")})
	what := fmt.Sprintf("a lone request at phase %v", phase)
	s.run(t, what)
	at, ok := s.indicatedAt()["lone"]
	if !ok {
		t.Fatalf("%s was never indicated at node 0", what)
	}
	return at - due
}

// pinLoneRequest runs a lone request at each phase under fault, after a
// first one if first, checks that none takes more than a period, and pins the
// latencies and their median.
func pinLoneRequest(t *testing.T, fault func(*Cluster, scheduleWorkload), first bool, what, want string) {
	t.Helper()
	period := scheduleWorkloads[0].period
	var took []time.Duration
	var row strings.Builder
	for k := range loneRequestPhases {
		phase := time.Duration(k) * period / loneRequestPhases
		d := runLoneRequest(t, 4, phase, fault, first)
		if d > period {
			t.Errorf("a lone request%s at phase %v took %v, more than a period", what, phase, d)
		}
		took = append(took, d)
		fmt.Fprintf(&row, "%.1f ", ms(d))
	}
	slices.Sort(took)
	fmt.Fprintf(&row, "ms, median %.1f ms", ms((took[loneRequestPhases/2-1]+took[loneRequestPhases/2])/2))
	t.Logf("lone request%s: %s", what, row.String())
	if got := row.String(); got != want {
		t.Errorf("a lone request%s read %q, want %q", what, got, want)
	}
}

// TestLatencyOfALoneRequest pins one request on an idle 4-node cluster at
// steady's 100 ms period, submitted at node 0 at eight phases of its period:
// fault-free, with node 3 crashed at 1 s, with node 3 late (latePeer), and
// with node 3 crashed after a first request has run out — what node 3 never
// reads of it stays held on every live node, but runs nothing and is no
// reason to build, so the cluster is idle again once it ran out. Node 0,
// idle, seals the request at once, and each node it wakes answers a quorum of
// its peers' blocks for a period, so BRB's phases run at network speed, not
// at the ticks: every phase takes at most a period, where waiting for the
// ticks took 2.25–3. An idle node's peers tick no empty block that clears
// what it heard, so the blocks that ended the last spell count toward its
// quorum and no phase waits for a tick. The last row's 0.2 ms over the
// others moves with the seeded link jitter, which every send draws, one to
// the crashed node 3 included.
func TestLatencyOfALoneRequest(t *testing.T) {
	pinLoneRequest(t, nil, false, "",
		"0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5 ms, median 0.5 ms")
	pinLoneRequest(t, crashLast, false, ", node 3 crashed at 1s",
		"0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5 ms, median 0.5 ms")
	pinLoneRequest(t, latePeer, false, ", node 3 late",
		"0.5 0.5 0.5 0.5 0.5 0.5 0.5 0.5 ms, median 0.5 ms")
	pinLoneRequest(t, crashLast, true, ", node 3 crashed at 1s, after a first request at 1.2s",
		"0.7 0.7 0.7 0.7 0.7 0.7 0.7 0.7 ms, median 0.7 ms")
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
				b.ReportMetric(run.wire, "wire-B/req")
			}
		})
	}
}
