package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkFile is the shape of ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheHarness keeps BENCHMARK.json and the tables in
// this package in step: a metric or workload added to one and not the other
// fails here, not in the driver.
func TestBenchmarkJSONMatchesTheHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n harness %+v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n harness %+v", f.PerLayer, perLayer)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the harness", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file has %q / %q, harness %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", f.Paths)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", f.RunSeconds)
	}
	// The driver makes 4 + 22 x workloads runs and allows 3420 s for all of
	// them with two builds; a run is about 13 s of set-up, warm-up, sweep and
	// shutdown on top of run_seconds.
	if runs := 4 + 22*len(f.Workloads); runs*(f.RunSeconds+14)+120 > 3420 {
		t.Errorf("%d runs of about %d s do not fit the driver's 3420 s", runs, f.RunSeconds+14)
	}
}

// TestSmoke is `-smoke -trace 1` on the workload with the most moving
// parts: it trains once, replays 20 requests per workload layer by layer,
// runs every end-to-end phase with a writer beside the reader, and must
// come back with every per-layer metric measured, every answer correct and
// the spans reconciled.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	res, err := runOnce([]string{"feedback_swap"}, smokeSettings(1), true)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for _, d := range perLayer {
		v, ok := res.Metrics[d.Name]
		if !ok || v.Unit != d.Unit {
			t.Errorf("metric %s: got %+v (present=%v), want unit %s", d.Name, v, ok, d.Unit)
		}
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(perLayer))
	}
	if st, err := os.Stat(filepath.Join(outDir, "trace.jsonl")); err != nil || st.Size() == 0 {
		t.Errorf("trace.jsonl: %v", err)
	}
}
