package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"
)

// benchmarkSpec is the part of BENCHMARK.json this test checks against.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// wantChecks are the correctness checks each workload must run.
var wantChecks = map[string][]string{
	"ingest": {"ingest.conservation", "ingest.checksum", "handoff.markers", "handoff.stored+retired=logged", "query.pruned=noprune"},
	"mixed":  {"handoff.markers", "handoff.stored+retired=logged", "query.pruned=noprune"},
}

// TestShortRuns runs every workload briefly, untraced and traced, on
// small inputs, and asserts that every metric BENCHMARK.json names is
// emitted with its unit and every correctness check ran and passed.
func TestShortRuns(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(wantChecks) {
		t.Fatalf("BENCHMARK.json names %d workloads, the test knows %d", len(spec.Workloads), len(wantChecks))
	}
	for _, wl := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: wl.Name, seed: 7, dur: 1500 * time.Millisecond, trace: traced,
				work: t.TempDir(), spans: t.TempDir(), short: true}
			r, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, r.Correct, r.Attempted, r.Failed)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s missing or with unit %q, want %q", wl.Name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			for _, c := range wantChecks[wl.Name] {
				if !slices.Contains(r.checks, c) {
					t.Errorf("%s trace=%v: check %s did not run (ran %v)", wl.Name, traced, c, r.checks)
				}
			}
		}
	}
}
