package main

import (
	"encoding/json"
	"os"
	"testing"

	"ndmesh/internal/lint"
)

// TestMeshvetClean holds the benchmark to the repository's static
// contracts: it runs the meshvet analyzer suite over this module, which
// the repository's own lint test does not reach.
func TestMeshvetClean(t *testing.T) {
	pkgs, err := lint.LoadPackages(".", "./...")
	if err != nil {
		t.Fatalf("loading the benchmark module: %v", err)
	}
	diags, err := lint.RunAnalyzers(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestBenchmarkJSONMatchesMetrics checks that BENCHMARK.json at the
// repository root declares exactly the workloads and metrics this program
// reports, in the same order and with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
