package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Metrics maps a metric name to its value.
type Metrics map[string]Metric

func (m Metrics) set(name string, value float64, unit string) {
	m[name] = Metric{Value: value, Unit: unit}
}

// Names returns the metric names sorted.
func (m Metrics) Names() []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Options parameterizes one run.
type Options struct {
	Workload Workload
	Seed     int64
	// Window is the measured time, after Warmup.
	Window time.Duration
	// Trace makes this the traced run: tracing is on for the middle half
	// of the window (the outer quarters are the untraced reference of the
	// same run, so cost growth over the run cancels), and the layer replay
	// and budget follow.
	Trace bool
	// OutDir receives store directories while the run lasts and the span
	// file of a traced run.
	OutDir string
	// RepoRoot is where internal/ lives, for the loc.* metrics; Calib is
	// the host calibration the calib.* metrics repeat.
	RepoRoot string
	Calib    Calibration
}

// Result is what one run measured. A run that fails the correctness gate
// returns an error instead.
type Result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Samples is the number of latencies behind latency_p50/p90_ms. Tail
	// is the highest percentile of them that still has ten samples beyond
	// it (0 when even p90 does not), and TailMs its value.
	Samples int     `json:"samples"`
	Tail    float64 `json:"tail_percentile"`
	TailMs  float64 `json:"tail_ms"`
	// StealRatio is the share of the machine's CPU time the hypervisor gave
	// to someone else during the window: what to look at first when a run
	// reads unlike its neighbours.
	StealRatio float64 `json:"host_steal_ratio"`
	EndToEnd   Metrics `json:"end_to_end"`
	PerLayer   Metrics `json:"per_layer,omitempty"`
	// Findings are observations worth a reader's attention that are not
	// failures (budget coverage outside 0.8–1.2, for one).
	Findings []string `json:"findings,omitempty"`
}

// drainGrace is how long after the last send a request may still be
// indicated before it counts as failed.
const drainGrace = 10 * time.Second

// gcLead is how long before the window the aligning collection starts:
// marking the warm-up's heap takes a few tens of milliseconds.
const gcLead = 200 * time.Millisecond

// setups is how many times a run brings the cluster up; setup_s is the
// median.
const setups = 3

// cpuTimes is the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// cpuTime is user+system.
func cpuTime() time.Duration {
	user, sys := cpuTimes()
	return user + sys
}

// sample is the process's and the host's counters at one instant of the
// window.
type sample struct {
	user, sys     time.Duration
	frames, bytes int64
	stolen        time.Duration
}

func (s sample) cpu() time.Duration { return s.user + s.sys }

func takeSample(tp *tap) sample {
	user, sys := cpuTimes()
	return sample{user: user, sys: sys, frames: tp.frames.Load(), bytes: tp.bytes.Load(), stolen: stolenTime()}
}

// measurement is everything the live run observed, before any metric is
// derived from it.
type measurement struct {
	opts    Options
	cluster *Cluster
	tap     *tap
	dir     string
	// w0..w1 is the measured window and q1..q3 its middle half (traced on
	// a traced run), as offsets from the generator's epoch; s* are the
	// process's counters at those four instants.
	w0, q1, q3, w1    time.Duration
	s0, sq1, sq3, s1  sample
	disk0, disk1      int64
	heap              uint64
	setups            []float64
	recovered         time.Duration
	records           []record
	streamMissed      uint64
	attempted, failed int
	// completedDue holds the due offsets of the window's completed
	// requests; lat their latencies in ms, sorted.
	completedDue []time.Duration
	lat          []float64
}

// Run executes one workload once and gates its correctness.
func Run(opts Options) (*Result, error) {
	if err := os.MkdirAll(opts.OutDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opts.OutDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m, err := measure(opts, dir)
	if m != nil {
		defer m.cluster.Close()
	}
	if err != nil {
		return nil, err
	}
	res := m.endToEnd()
	if opts.Trace {
		if err := m.perLayer(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// measure brings the cluster up, drives the schedule through it and gates
// correctness. The cluster is still running when it returns.
func measure(opts Options, dir string) (*measurement, error) {
	wl := opts.Workload
	tp := &tap{tr: newTracer()}
	cluster, took, err := setUp(wl, dir, tp)
	if err != nil {
		return nil, err
	}
	m := &measurement{opts: opts, cluster: cluster, tap: tp, dir: dir, setups: took}
	m.w0, m.w1 = Warmup, Warmup+opts.Window
	m.q1, m.q3 = m.w0+opts.Window/4, m.w0+opts.Window*3/4

	gen, err := NewLoadGen(cluster.Gateway(), Schedule(opts.Seed, wl.Rate, wl.Payload, Warmup, opts.Window))
	if err != nil {
		return m, err
	}
	defer gen.Close()
	if opts.Trace {
		defer subscribe(cluster, tp)()
	}
	epoch := time.Now()
	tp.tr.epoch = epoch

	// The timeline runs beside the generator: it samples the process at
	// the window's instants, switches tracing on for the middle half of a
	// traced run, and on a crash workload stops the last member at the
	// first quarter and restarts it at CrashRestartAt. One goroutine does
	// all three, so they never race.
	var timelineErr error
	timeline := make(chan struct{})
	go func() {
		defer close(timeline)
		at := func(offset time.Duration) { time.Sleep(time.Until(epoch.Add(offset))) }
		last := wl.N - 1
		// A collection just before the window, as testing.B runs one before
		// its timer: every run's window then starts at the same point of the
		// collector's cycle. Left to chance, whether the window's last and
		// dearest cycle (it marks the whole retained heap) fell inside it or
		// just after moved cpu_user_ms_per_req by several percent.
		at(m.w0 - gcLead)
		runtime.GC()
		at(m.w0)
		m.s0 = takeSample(tp)
		m.disk0, timelineErr = cluster.DiskSize()
		at(m.q1)
		m.sq1 = takeSample(tp)
		if opts.Trace {
			tp.tr.window(true)
			tp.tracing.Store(true)
		}
		if wl.Crash {
			cluster.members[last].stop()
			at(m.w0 + time.Duration(CrashRestartAt*float64(opts.Window)))
			var err error
			m.recovered, err = cluster.Restart(last)
			timelineErr = errors.Join(timelineErr, err)
		}
		at(m.q3)
		if opts.Trace {
			tp.tracing.Store(false)
			tp.tr.window(false)
		}
		m.sq3 = takeSample(tp)
		at(m.w1)
		m.s1 = takeSample(tp)
	}()
	gen.Run(epoch)
	<-timeline
	gen.Drain(drainGrace) // a request the stream still has not shown counts as failed below
	converged := cluster.awaitAgreement(drainGrace)
	m.disk1, err = cluster.DiskSize()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heap = ms.HeapAlloc
	if err = errors.Join(err, timelineErr, gen.Close()); err != nil {
		return m, err
	}
	m.records, m.streamMissed = gen.Records(), gen.missed
	if err := cluster.gate(m.records, converged); err != nil {
		return m, err
	}
	for i := range m.records {
		r := &m.records[i]
		if r.req.Due < m.w0 || r.req.Due >= m.w1 {
			continue
		}
		m.attempted++
		if !r.accepted() || !r.indicated() {
			m.failed++
			continue
		}
		m.completedDue = append(m.completedDue, r.req.Due)
		m.lat = append(m.lat, float64(r.latency())/float64(time.Millisecond))
	}
	if len(m.lat) == 0 {
		return m, errors.New("bench: no request completed in the measured window")
	}
	sort.Float64s(m.lat)
	return m, nil
}

// perMs is d in milliseconds per each of n.
func perMs(d time.Duration, n float64) float64 {
	return ratio(float64(d)/float64(time.Millisecond), n)
}

// endToEnd derives the gated metrics.
func (m *measurement) endToEnd() *Result {
	res := &Result{
		Workload: m.opts.Workload.Name, Seed: m.opts.Seed, Seconds: m.opts.Window.Seconds(),
		Attempted: m.attempted, Failed: m.failed, Samples: len(m.lat), EndToEnd: Metrics{},
	}
	if tail, ok := TailPercentile(len(m.lat)); ok {
		res.Tail, res.TailMs = tail, Percentile(m.lat, tail)
	}
	res.StealRatio = ratio(float64(m.s1.stolen-m.s0.stolen), float64(m.opts.Window)*float64(runtime.NumCPU()))
	done := float64(len(m.lat))
	e := res.EndToEnd
	e.set("latency_p50_ms", Percentile(m.lat, 50), "ms")
	e.set("latency_p90_ms", Percentile(m.lat, 90), "ms")
	e.set("cpu_user_ms_per_req", perMs(m.s1.user-m.s0.user, done), "ms")
	e.set("heap_mb_end", float64(m.heap)/(1<<20), "MB")
	e.set("wire_bytes_per_req", float64(m.s1.bytes-m.s0.bytes)/done, "B")
	e.set("disk_bytes_per_req", float64(m.disk1-m.disk0)/done, "B")
	e.set("setup_s", Median(m.setups), "s")
	return res
}

// perLayer derives the per-layer metrics: live, then layer replay, then
// budget. It stops the cluster: the replay reads member 0's store.
func (m *measurement) perLayer(res *Result) error {
	p := Metrics{}
	res.PerLayer = p
	done := float64(len(m.lat))
	spans := liveMetrics(p, m.tap.tr, m.records, m.lat, m.w0, m.w1)
	p.set("process.cpu_ms_per_req", perMs(m.s1.cpu()-m.s0.cpu(), done), "ms")
	p.set("process.cpu_sys_ms_per_req", perMs(m.s1.sys-m.s0.sys, done), "ms")
	p.set("host.steal_ratio", res.StealRatio, "ratio")
	p.set("gateway.stream_missed", float64(m.streamMissed), "count")
	p.set("tcpnet.frames_sent", float64(m.s1.frames-m.s0.frames), "count")
	p.set("tcpnet.bytes_sent", float64(m.s1.bytes-m.s0.bytes), "B")
	pool := m.cluster.members[0].pool.Stats()
	p.set("mempool.accepted", float64(pool.Accepted), "count")
	p.set("mempool.overflow", float64(pool.Overflow), "count")
	p.set("mempool.duplicates", float64(pool.Duplicates), "count")
	p.set("mempool.peak_depth", float64(pool.PeakDepth), "count")
	p.set("store.disk_bytes", float64(m.disk1), "B")
	crashMetrics(p, m.cluster, m.recovered)

	// Tracing overhead: the traced middle half against the untraced outer
	// quarters of this same run.
	var reqsU, reqsT float64
	for _, due := range m.completedDue {
		if due >= m.q1 && due < m.q3 {
			reqsT++
		} else {
			reqsU++
		}
	}
	cpuU := perMs((m.sq1.cpu()-m.s0.cpu())+(m.s1.cpu()-m.sq3.cpu()), reqsU)
	cpuT := perMs(m.sq3.cpu()-m.sq1.cpu(), reqsT)
	p.set("trace.overhead_ratio", ratio(cpuT, cpuU), "ratio")

	m.cluster.Close()
	var wal int
	for _, mb := range m.cluster.members {
		segs, _ := filepath.Glob(filepath.Join(mb.dir, "*.wal"))
		wal += len(segs)
	}
	p.set("store.wal_segments", float64(wal), "count")
	if err := replayLayers(p, m.cluster, m.dir, cpuU); err != nil {
		return err
	}
	if cov := p["budget.coverage"].Value; cov < 0.8 || cov > 1.2 {
		res.Findings = append(res.Findings, fmt.Sprintf(
			"budget.coverage %.2f: the layer replay accounts for %.3f of %.3f CPU-ms/request; the rest is transport, runtime and GC",
			cov, p["budget.cpu_ms_per_req"].Value, cpuU))
	}
	hostMetrics(p, m.opts.Calib, m.opts.RepoRoot)
	return writeSpans(filepath.Join(m.opts.OutDir, "trace-"+m.opts.Workload.Name+".json"), spans)
}

// setUp brings the cluster up setups times, each until a probe request's
// indication comes back through the gateway, and keeps the last one.
func setUp(wl Workload, dir string, tp *tap) (*Cluster, []float64, error) {
	var took []float64
	for k := 0; ; k++ {
		sub := filepath.Join(dir, fmt.Sprintf("up%d", k))
		began := time.Now()
		cluster, err := StartCluster(wl, sub, tp)
		if err != nil {
			return nil, nil, err
		}
		probe, err := NewLoadGen(cluster.Gateway(), []Request{{Label: fmt.Sprintf("probe/%d", k), Value: []byte("up")}})
		if err == nil {
			probe.Run(time.Now())
			ok := probe.Drain(drainGrace)
			if err = probe.Close(); err == nil && !ok {
				err = errors.New("bench: the probe request was not indicated")
			}
		}
		if err != nil {
			cluster.Close()
			return nil, nil, err
		}
		took = append(took, time.Since(began).Seconds())
		if k == setups-1 {
			return cluster, took, nil
		}
		// Its directory stays until the run's is removed: deleting files now
		// would put the file system's work into the warm-up.
		cluster.Close()
	}
}

// subscribe attaches the in-process observer of member 0's indication
// broker: the publish instant, before the gateway's stream carries it.
func subscribe(c *Cluster, tp *tap) (stop func()) {
	// Sized to outlast any burst the named workloads produce (a dense
	// block indicates ~30 labels at once); the broker drops on overflow.
	sub := c.members[0].nd.Indications().Subscribe(4096)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ind := range sub.C() {
			if tp.tracing.Load() {
				tp.tr.indicationPublished(string(ind.Label))
			}
		}
	}()
	return func() {
		sub.Close()
		<-done
	}
}

// awaitAgreement waits until every running member has indicated as many
// labels as member 0.
func (c *Cluster) awaitAgreement(grace time.Duration) bool {
	deadline := time.Now().Add(grace)
	for {
		want, agreed := c.members[0].seen.len(), true
		for _, m := range c.members[1:] {
			agreed = agreed && m.seen.len() >= want
		}
		if agreed {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// gate is the correctness gate: every accepted request indicated exactly
// once on member 0 with the submitted value (and never twice or wrongly
// on the client's stream), every member's (label → value) map identical
// (Theorem 5.1's agreement), every runtime healthy. A request the gateway
// refused, or whose indication the client never read, is not a gate
// violation: the caller counts it as failed.
func (c *Cluster) gate(records []record, converged bool) error {
	var problems []string
	if !converged {
		problems = append(problems, "members' indication maps did not converge")
	}
	if err := c.Err(); err != nil {
		problems = append(problems, "unhealthy runtime: "+err.Error())
	}
	m0 := c.members[0].seen
	m0.mu.Lock()
	defer m0.mu.Unlock()
	if m0.repeats > 0 || m0.conflict != "" {
		problems = append(problems, fmt.Sprintf("member 0 indicated %d labels more than once (conflict: %q)", m0.repeats, m0.conflict))
	}
	for i := range records {
		r := &records[i]
		if !r.accepted() {
			continue
		}
		if r.lines > 1 || r.badValue {
			problems = append(problems, fmt.Sprintf("request %s: %d stream lines, wrong value: %v", r.req.Label, r.lines, r.badValue))
		}
		if got, ok := m0.values[r.req.Label]; !ok || got != string(r.req.Value) {
			problems = append(problems, fmt.Sprintf("request %s: member 0 indicated %q", r.req.Label, got))
		}
		if len(problems) > 8 {
			break
		}
	}
	for _, m := range c.members[1:] {
		m.seen.mu.Lock()
		same := len(m.seen.values) == len(m0.values) && m.seen.conflict == ""
		for label, value := range m0.values {
			if !same {
				break
			}
			same = m.seen.values[label] == value
		}
		m.seen.mu.Unlock()
		if !same {
			problems = append(problems, fmt.Sprintf("member %d's indication map differs from member 0's", m.identity.ID()))
		}
	}
	if len(problems) > 0 {
		return errors.New("bench: correctness gate: " + strings.Join(problems, "; "))
	}
	return nil
}
