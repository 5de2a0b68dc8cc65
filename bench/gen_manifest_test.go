package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json's exact shape.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// specManifest renders the catalogue in spec.go as BENCHMARK.json.
func specManifest() manifest {
	m := manifest{
		Command:    []string{"go", "run", "-C", "bench", "yardstick/bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{w.Name, w.Why})
	}
	for _, s := range endToEnd {
		b := s.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{s.Name, s.Unit, s.Better, &b})
	}
	for _, s := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{s.Name, s.Unit, s.Better, nil})
	}
	return m
}

// TestWriteManifest regenerates ../BENCHMARK.json from spec.go when
// BENCH_WRITE_MANIFEST is set, and logs the README's metric tables (run
// with -v to paste them); otherwise it does nothing.
func TestWriteManifest(t *testing.T) {
	if os.Getenv("BENCH_WRITE_MANIFEST") == "" {
		t.Skip("set BENCH_WRITE_MANIFEST=1 to rewrite ../BENCHMARK.json from spec.go")
	}
	data, err := json.MarshalIndent(specManifest(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("../BENCHMARK.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	var md strings.Builder
	for _, w := range workloads {
		fmt.Fprintf(&md, "| `%s` | %s | %s |\n", w.Name, w.Op, w.Why)
	}
	md.WriteString("\n")
	for _, s := range endToEnd {
		fmt.Fprintf(&md, "| `%s` | %s | %s | %.0f %% | %s |\n", s.Name, s.Unit, s.Better, 100*s.Bound, s.Def)
	}
	md.WriteString("\n")
	for _, s := range perLayer {
		fmt.Fprintf(&md, "| `%s` | `%s` | %s | %s | %s |\n", strings.Split(s.Name, ".")[0], s.Name, s.Unit, s.Def, s.Moves)
	}
	t.Log("\n" + md.String())
}
