package bench

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"blockdag/internal/block"
	"blockdag/internal/gossip"
	"blockdag/internal/transport"
	"blockdag/internal/types"
)

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(empty) = %v, want 0", got)
	}
	if got := Median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("Median = %v, want 2.5", got)
	}
}

// The quoted tail is the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{99, 0, false}, // p90 of 99 leaves 9 beyond
		{100, 90, true},
		{199, 90, true}, // p95 of 199 leaves 9 beyond
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{2042, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := TailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("TailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
	}
}

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	a := Schedule(42, 100, 32, time.Second, 4*time.Second)
	b := Schedule(42, 100, 32, time.Second, 4*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed produced two different schedules")
	}
	c := Schedule(43, 100, 32, time.Second, 4*time.Second)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced the same schedule")
	}
	// Every seed attempts exactly rate × length requests in each phase.
	if len(a) != 500 || len(c) != 500 || a[99].Due >= time.Second || a[100].Due < time.Second {
		t.Errorf("100 req/s over 1 s + 4 s scheduled %d requests; the 100th is due at %v, the 101st at %v", len(a), a[99].Due, a[100].Due)
	}
	labels := make(map[string]bool)
	for i, rq := range a {
		if rq.Due <= 0 || rq.Due >= 5*time.Second || (i > 0 && rq.Due < a[i-1].Due) {
			t.Fatalf("request %d due at %v", i, rq.Due)
		}
		if len(rq.Value) != 32 || labels[rq.Label] {
			t.Fatalf("request %d: value of %d bytes, label %q repeated: %v", i, len(rq.Value), rq.Label, labels[rq.Label])
		}
		labels[rq.Label] = true
	}
}

func TestSelfTime(t *testing.T) {
	ms := time.Millisecond
	parent := Span{Name: "request", Start: 10 * ms, End: 110 * ms}
	for _, tc := range []struct {
		name     string
		children []Span
		want     time.Duration
	}{
		{"no children", nil, 100 * ms},
		{"one child", []Span{{Start: 20 * ms, End: 50 * ms}}, 70 * ms},
		{"overlapping children count once", []Span{{Start: 20 * ms, End: 60 * ms}, {Start: 40 * ms, End: 80 * ms}}, 40 * ms},
		{"nested child adds nothing", []Span{{Start: 20 * ms, End: 80 * ms}, {Start: 30 * ms, End: 40 * ms}}, 40 * ms},
		{"clipped to the parent", []Span{{Start: 0, End: 20 * ms}, {Start: 100 * ms, End: 200 * ms}}, 80 * ms},
		{"outside the parent", []Span{{Start: 120 * ms, End: 130 * ms}}, 100 * ms},
		{"full cover", []Span{{Start: 10 * ms, End: 60 * ms}, {Start: 60 * ms, End: 110 * ms}}, 0},
		{"unsorted", []Span{{Start: 90 * ms, End: 100 * ms}, {Start: 20 * ms, End: 30 * ms}}, 80 * ms},
	} {
		if got := SelfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

// The counting decorator adds exactly len(payload) per Send, traced or
// not, and forwards every payload untouched.
func TestTapCountsPayloadBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tracing := range []bool{false, true} {
		tp := &tap{tr: newTracer()}
		tp.tr.epoch = time.Now()
		tp.tracing.Store(tracing)
		inner := &recordingTransport{}
		tr := tp.transport(inner)
		var want int64
		for i := 0; i < 500; i++ {
			payload := make([]byte, rng.Intn(2048))
			rng.Read(payload)
			want += int64(len(payload))
			tr.Send(types.ServerID(i%4), transport.ChanGossip, payload)
		}
		if got := tp.bytes.Load(); got != want {
			t.Errorf("tracing=%v: tap counted %d bytes, sent %d", tracing, got, want)
		}
		if got := tp.frames.Load(); got != 500 {
			t.Errorf("tracing=%v: tap counted %d frames, sent 500", tracing, got)
		}
		if inner.bytes != want || inner.frames != 500 {
			t.Errorf("tracing=%v: inner transport saw %d bytes in %d frames", tracing, inner.bytes, inner.frames)
		}
	}
}

type recordingTransport struct {
	nullTransport
	frames, bytes int64
}

func (r *recordingTransport) Send(_ types.ServerID, _ transport.Channel, payload []byte) {
	r.frames++
	r.bytes += int64(len(payload))
}

// peekBlock reads a block frame's header the way block.Decode does.
func TestPeekBlockAgreesWithDecode(t *testing.T) {
	preds := []block.Ref{{1}, {2}}
	b := block.New(3, 1<<40+7, preds, []block.Request{{Label: "l", Data: []byte("v")}})
	key, ok := peekBlock(gossip.EncodeBlockMsg(b))
	if !ok || key.builder != 3 || key.seq != 1<<40+7 {
		t.Errorf("peekBlock = %+v, %v", key, ok)
	}
	if _, ok := peekBlock(gossip.EncodeFwdMsg(block.Ref{9})); ok {
		t.Error("peekBlock accepted a FWD frame")
	}
	if _, ok := peekBlock([]byte{kindBlock, 3}); ok {
		t.Error("peekBlock accepted a truncated frame")
	}
	if kindBlock == kindFwd {
		t.Error("block and FWD frames share a kind byte")
	}
}

func TestCompareRefusesAnotherHost(t *testing.T) {
	res := func(v float64) *Result {
		e := Metrics{}
		for _, spec := range EndToEnd {
			e.set(spec.Name, v, spec.Unit)
		}
		return &Result{Workload: "steady", EndToEnd: e}
	}
	a := &Document{Host: Fingerprint{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Kernel: "k"}, Results: []*Result{res(100)}}
	b := &Document{Host: a.Host, Results: []*Result{res(108)}}
	deltas, err := Compare(a, b)
	if err != nil || len(deltas) != len(EndToEnd) {
		t.Fatalf("Compare on one host: %d deltas, %v", len(deltas), err)
	}
	for _, d := range deltas {
		if d.Exceeds {
			t.Errorf("%s: +8%% exceeds a bound of %v", d.Spec.Name, d.Spec.Bound)
		}
	}
	b.Results = []*Result{res(130)}
	deltas, _ = Compare(a, b)
	for _, d := range deltas {
		if !d.Exceeds {
			t.Errorf("%s: +30%% within a bound of %v", d.Spec.Name, d.Spec.Bound)
		}
	}
	b.Host.NumCPU = 8
	if _, err := Compare(a, b); err == nil {
		t.Error("Compare accepted documents from two different hosts")
	}
}

// smoke runs one short steady-shaped traced run, shared by the tests
// that inspect its result.
var smoke = sync.OnceValues(func() (*Result, error) {
	wl, err := WorkloadByName("steady")
	if err != nil {
		return nil, err
	}
	wl.Rate = 20
	// bench/out is where every run keeps its files, and .gitignore names it.
	return Run(Options{Workload: wl, Seed: 1, Window: 2 * time.Second, Trace: true, OutDir: "out/smoke", RepoRoot: ".."})
})

// A 2 s steady-shaped run at 20 req/s passes the correctness gate (Run
// returns an error otherwise) and completes every request.
func TestSmokeRunPassesTheGate(t *testing.T) {
	res, err := smoke()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted < 10 || res.Samples != res.Attempted {
		t.Errorf("attempted %d, failed %d, latency samples %d", res.Attempted, res.Failed, res.Samples)
	}
	for _, name := range []string{"latency_p50_ms", "cpu_user_ms_per_req", "wire_bytes_per_req", "disk_bytes_per_req", "setup_s"} {
		if res.EndToEnd[name].Value <= 0 {
			t.Errorf("%s = %v", name, res.EndToEnd[name].Value)
		}
	}
	if got := res.PerLayer["dag.rounds_to_indication_p50"].Value; got < 2 || got > 6 {
		t.Errorf("BRB took %v DAG rounds from embedding to indication", got)
	}
	if res.PerLayer["loc.total"].Value == 0 {
		t.Error("loc.total is 0: the harness did not find the sources")
	}
}

// BENCHMARK.json repeats what the code declares; the driver reads the
// file, the harness the code.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code %d", len(doc.Workloads), len(Workloads))
	}
	for i, wl := range Workloads {
		if doc.Workloads[i].Name != wl.Name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the code %q", i, doc.Workloads[i].Name, wl.Name)
		}
	}
	if len(doc.EndToEnd) != len(EndToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the code %d", len(doc.EndToEnd), len(EndToEnd))
	}
	for i, spec := range EndToEnd {
		got := doc.EndToEnd[i]
		if got.Name != spec.Name || got.Unit != spec.Unit || got.Better != spec.Better || got.Bound != spec.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the code %+v", i, got, spec)
		}
	}
	res, err := smoke()
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range EndToEnd {
		if m, ok := res.EndToEnd[spec.Name]; !ok || m.Unit != spec.Unit {
			t.Errorf("the run reported %s as %+v (present: %v)", spec.Name, m, ok)
		}
	}
	var declared []string
	for _, m := range doc.PerLayer {
		declared = append(declared, m.Name)
		if got := res.PerLayer[m.Name]; got.Unit != m.Unit {
			t.Errorf("per-layer metric %s: BENCHMARK.json says %q, the run %q", m.Name, m.Unit, got.Unit)
		}
	}
	sort.Strings(declared)
	if measured := res.PerLayer.Names(); !reflect.DeepEqual(declared, measured) {
		t.Errorf("per-layer metrics differ:\nBENCHMARK.json: %v\nthe run:        %v", declared, measured)
	}
}
