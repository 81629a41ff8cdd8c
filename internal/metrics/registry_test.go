package metrics

import (
	"strings"
	"testing"
)

func TestRegistryRendersExpositionFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Register(func(emit func(Metric)) {
		emit(Metric{Name: "zeta_total", Help: "Last\nalphabetically.", Kind: Counter, Value: 3})
		emit(Metric{Name: "alpha_depth", Help: "A gauge.", Kind: Gauge, Value: 1.5})
	})
	reg.Register(func(emit func(Metric)) {
		emit(Metric{Name: "labeled_total", Help: "With labels.", Kind: Counter,
			Labels: [][2]string{{"cause", "rate"}}, Value: 2})
		emit(Metric{Name: "labeled_total", Help: "With labels.", Kind: Counter,
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

// TestRegistryToleratesNilCollectors: a subsystem a deployment lacks
// registers a nil collector (Table.Collector over a nil Metrics is one), and
// a registry of only those renders empty.
func TestRegistryToleratesNilCollectors(t *testing.T) {
	reg := NewRegistry()
	reg.Register(Families.Collector(nil))
	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil || b.Len() != 0 {
		t.Fatalf("nil-only registry rendered %q (err %v)", b.String(), err)
	}
}
