package metrics

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
)

// Metric is one sample a collector emits: a family name, label pairs and
// the current value. Help and Kind describe the family; a family's first
// sample in label order speaks for it. Table.Sample builds one from a row.
type Metric struct {
	Name   string
	Help   string
	Kind   Kind
	Labels [][2]string
	Value  float64
}

// Collector contributes the current samples of one subsystem to a scrape.
// Collectors run on the scrape handler's goroutine and must only read
// concurrency-safe state (a Metrics, a mutex-guarded snapshot).
type Collector func(emit func(Metric))

// Registry is the observability plane's fold point: each subsystem plugs
// a Collector in, and one WriteTo renders the union in Prometheus text
// exposition format. Safe for concurrent use; registration order is
// irrelevant (families render name-sorted).
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register plugs one collector in. Nil collectors are ignored.
func (r *Registry) Register(c Collector) {
	if c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Gather runs every collector and returns the samples grouped by family
// name, names sorted, samples within a family in label order.
func (r *Registry) Gather() []Metric {
	r.mu.Lock()
	collectors := slices.Clone(r.collectors)
	r.mu.Unlock()
	var all []Metric
	for _, c := range collectors {
		c(func(m Metric) { all = append(all, m) })
	}
	slices.SortStableFunc(all, func(a, b Metric) int {
		return cmp.Or(cmp.Compare(a.Name, b.Name), cmp.Compare(labelKey(a.Labels), labelKey(b.Labels)))
	})
	return all
}

// WriteTo renders the current samples in the Prometheus text exposition
// format (version 0.0.4): one # HELP and # TYPE line per family, then its
// samples. It implements io.WriterTo.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	lastFamily := ""
	for _, m := range r.Gather() {
		if m.Name != lastFamily {
			lastFamily = m.Name
			help := strings.ReplaceAll(strings.ReplaceAll(m.Help, `\`, `\\`), "\n", `\n`)
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", m.Name, help, m.Name, m.Kind)
		}
		b.WriteString(m.Name)
		if len(m.Labels) > 0 {
			b.WriteByte('{')
			for i, kv := range m.Labels {
				if i > 0 {
					b.WriteByte(',')
				}
				fmt.Fprintf(&b, "%s=%q", kv[0], kv[1])
			}
			b.WriteByte('}')
		}
		fmt.Fprintf(&b, " %v\n", m.Value)
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// labelKey flattens a label set for deterministic ordering.
func labelKey(labels [][2]string) string {
	var b strings.Builder
	for _, kv := range labels {
		b.WriteString(kv[0] + "=" + kv[1] + ";")
	}
	return b.String()
}
