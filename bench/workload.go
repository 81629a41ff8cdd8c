package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Workload is one traffic mix plus the cluster shape it runs on. The
// named workloads below are the benchmark; dagbench's sweep flags build
// ad-hoc ones the named set never uses.
type Workload struct {
	Name string
	// N is the cluster size (f = (N-1)/3 byzantine tolerated, none injected).
	N int
	// Rate is the open-loop arrival rate in requests per second.
	Rate float64
	// Payload is the request value size in bytes.
	Payload int
	// DisseminateEvery is every node's block production period.
	DisseminateEvery time.Duration
	// Compress turns on core.Config.CompressReferences cluster-wide.
	Compress bool
	// Crash stops node N-1 a quarter into the measured window and
	// restarts it from its store at CrashRestartAt.
	Crash bool
}

// CrashRestartAt is when the stopped node comes back, as a fraction of
// the measured window: with the benchmark's 20 s window node N-1 is down
// from t=5 s to t=11 s, which leaves the last 9 s for recovery and steady
// state after it.
const CrashRestartAt = 0.55

// Warmup is discarded from every metric: connections, the Go heap and
// the page cache reach steady state during it.
const Warmup = 3 * time.Second

// Workloads is the benchmark's fixed set. All run BRB on n=4, f=1;
// BENCHMARK.json and the README say why each was chosen.
var Workloads = []Workload{
	// ~10 requests per block: per-request and per-block costs both visible.
	{Name: "steady", N: 4, Rate: 100, Payload: 32, DisseminateEvery: 100 * time.Millisecond},
	// ~30 requests per block: batching amortises the per-block layers.
	{Name: "dense", N: 4, Rate: 150, Payload: 256, DisseminateEvery: 200 * time.Millisecond},
	// Four near-empty blocks per request: the per-block layers dominate.
	{Name: "sparse", N: 4, Rate: 10, Payload: 32, DisseminateEvery: 100 * time.Millisecond},
	// steady's traffic through a stop and restart of node 3: the fault run.
	{Name: "crash-recover", N: 4, Rate: 100, Payload: 32, DisseminateEvery: 100 * time.Millisecond, Crash: true},
}

// WorkloadByName looks a named workload up.
func WorkloadByName(name string) (Workload, error) {
	for _, wl := range Workloads {
		if wl.Name == name {
			return wl, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Request is one scheduled client request.
type Request struct {
	// Due is when the open loop sends it, as an offset from the start of
	// the schedule. Latency is measured from here, not from the actual
	// send, so a stalled generator or gateway charges the wait it imposes.
	Due   time.Duration
	Label string
	Value []byte
}

// Schedule generates the open-loop arrival schedule over the given
// phases (the warm-up, then the measured window), each a Poisson process
// at the given rate conditioned on its count: exactly rate × length
// arrivals, at exponential inter-arrival times scaled to fill the phase.
// Every seed thus attempts the same number of requests — per-request
// metrics divide by it, and a count that varied by seed would be workload
// noise, not a property of the program. Each request gets a fresh label
// and a random value of payload bytes. Schedule is a pure function of its
// arguments: the same seed always yields the same inputs.
func Schedule(seed int64, rate float64, payload int, phases ...time.Duration) []Request {
	rng := rand.New(rand.NewSource(seed))
	var reqs []Request
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
			reqs = append(reqs, Request{
				Due:   begin + time.Duration(at/sum*float64(length)),
				Label: fmt.Sprintf("q%x/%d", uint64(seed), len(reqs)),
				Value: value,
			})
		}
		begin += length
	}
	return reqs
}
