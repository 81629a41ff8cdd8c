package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Spec declares one end-to-end metric: its unit, which way is better,
// and the share of the baseline by which it may worsen before a change
// counts as a regression. BENCHMARK.json repeats this table.
type Spec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// EndToEnd is the benchmark's gated metric set, the same on every
// workload.
var EndToEnd = []Spec{
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"cpu_user_ms_per_req", "ms", "lower", 0.25},
	{"heap_mb_end", "MB", "lower", 0.15},
	{"wire_bytes_per_req", "B", "lower", 0.10},
	{"disk_bytes_per_req", "B", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// Document is what one dagbench invocation measured: the host it ran on
// and every run's result.
type Document struct {
	Host    Fingerprint `json:"host"`
	Calib   Calibration `json:"calib"`
	Results []*Result   `json:"results"`
}

// WriteFile writes the document as indented JSON.
func (d *Document) WriteFile(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadDocument loads a document WriteFile wrote.
func ReadDocument(path string) (*Document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &d, nil
}

// Delta is one end-to-end metric of one workload in two documents.
type Delta struct {
	Workload string
	Spec     Spec
	A, B     float64
	// Change is (B-A)/A; Exceeds reports |Change| > Spec.Bound.
	Change  float64
	Exceeds bool
}

// Compare pairs the untraced results of two documents, workload by
// workload in order of appearance. It refuses documents from different
// hosts: a number from another machine, kernel or toolchain is not a
// baseline.
func Compare(a, b *Document) ([]Delta, error) {
	if a.Host != b.Host {
		return nil, fmt.Errorf("bench: refusing to compare across hosts: %v vs %v", a.Host, b.Host)
	}
	var out []Delta
	used := make(map[int]bool)
	for _, ra := range a.Results {
		if ra.PerLayer != nil {
			continue
		}
		for j, rb := range b.Results {
			if used[j] || rb.PerLayer != nil || rb.Workload != ra.Workload {
				continue
			}
			used[j] = true
			for _, spec := range EndToEnd {
				va, vb := ra.EndToEnd[spec.Name].Value, rb.EndToEnd[spec.Name].Value
				change := ratio(vb-va, va)
				out = append(out, Delta{ra.Workload, spec, va, vb, change, math.Abs(change) > spec.Bound})
			}
			break
		}
	}
	return out, nil
}
