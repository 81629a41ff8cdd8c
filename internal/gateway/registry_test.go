package gateway

import (
	"strings"
	"testing"

	"blockdag/internal/mempool"
	"blockdag/internal/metrics"
)

func TestRegistryRendersExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Register(func(emit func(Metric)) {
		emit(Metric{Name: "zeta_total", Help: "Last\nalphabetically.", Type: Counter, Value: 3})
		emit(Metric{Name: "alpha_depth", Help: "A gauge.", Type: Gauge, Value: 1.5})
	})
	reg.Register(func(emit func(Metric)) {
		emit(Metric{Name: "labeled_total", Help: "With labels.", Type: Counter,
			Labels: [][2]string{{"cause", "rate"}}, Value: 2})
		emit(Metric{Name: "labeled_total", Type: Counter,
			Labels: [][2]string{{"cause", "inflight"}}, Value: 1})
	})
	reg.Register(nil) // ignored

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// Families render name-sorted, HELP/TYPE once per family, newline
	// escaped in help text.
	wantOrder := []string{
		"# HELP alpha_depth A gauge.",
		"# TYPE alpha_depth gauge",
		"alpha_depth 1.5",
		"# HELP labeled_total With labels.",
		"# TYPE labeled_total counter",
		`labeled_total{cause="inflight"} 1`,
		`labeled_total{cause="rate"} 2`,
		`# HELP zeta_total Last\nalphabetically.`,
		"# TYPE zeta_total counter",
		"zeta_total 3",
	}
	pos := -1
	for _, want := range wantOrder {
		i := strings.Index(out, want)
		if i < 0 {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
		if i < pos {
			t.Fatalf("%q out of order:\n%s", want, out)
		}
		pos = i
	}
	if strings.Count(out, "# TYPE labeled_total") != 1 {
		t.Fatalf("TYPE repeated within a family:\n%s", out)
	}
}

func TestCollectorsTolerateNilSubsystems(t *testing.T) {
	for name, c := range map[string]Collector{
		"metrics": CollectMetrics(nil),
		"tcpnet":  CollectTCPNet(nil),
		"sync":    CollectSync(nil),
		"crypto":  CollectCrypto(nil),
	} {
		if c != nil {
			t.Fatalf("Collect for nil %s subsystem != nil", name)
		}
	}
	// And a registry with only nil registrations renders empty.
	reg := NewRegistry()
	reg.Register(CollectMetrics(nil))
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil-only registry rendered %q (err %v)", b.String(), err)
	}
}

func TestCollectMetricsAndMempool(t *testing.T) {
	m := &metrics.Metrics{}
	m.AddBlocksBuilt(4)
	m.AddWireSend(128)
	pool := mempool.New(mempool.Options{Capacity: 8})
	if err := pool.Submit("l", []byte("v")); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Register(CollectMetrics(m))
	reg.Register(CollectMempool(pool))
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"dag_blocks_built_total 4",
		"dag_wire_bytes_total 128",
		"mempool_accepted_total 1",
		"mempool_depth 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("scrape missing %q:\n%s", want, out)
		}
	}
}
