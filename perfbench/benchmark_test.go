package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// benchmarkFile is the shape of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []layerMetric `json:"per_layer"`
}

// TestBenchmarkFileMatchesProgram checks that BENCHMARK.json lists exactly
// the metrics this program prints, and only workloads it knows.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(f.PerLayer, perLayerMetrics) {
		t.Errorf("BENCHMARK.json per_layer differs from perLayerMetrics:\n file %v\n code %v", f.PerLayer, perLayerMetrics)
	}
	units := map[string]string{}
	for _, m := range f.EndToEnd {
		units[m.Name] = m.Unit
	}
	want := map[string]string{
		"runs_per_sec": "runs/s", "campaign_p50_ms": "ms", "campaign_tail_ms": "ms",
		"setup_s": "s", "peak_rss_mb": "MiB",
	}
	if len(units) != len(want) {
		t.Errorf("end_to_end = %v, want %v", units, want)
	}
	for name, unit := range want {
		if units[name] != unit {
			t.Errorf("end_to_end %s unit = %q, want %q", name, units[name], unit)
		}
	}
	for _, w := range f.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one of %v", w.Name, workloadNames)
		}
	}
}
