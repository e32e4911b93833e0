package main

import (
	"encoding/json"
	"os"
	"testing"
)

// benchSpec is the part of ../BENCHMARK.json the smoke test checks
// against.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload of BENCHMARK.json untraced and traced on a
// tiny replica for half a second, and checks that every named metric is
// measured with its unit and that no answer was wrong.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			cfg := config{workload: wl.Name, seed: 3, seconds: 0.5, trace: trace, edges: 3000, root: t.TempDir()}
			res, env, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			unmeasured := env["unmeasured"].(map[string]string)
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %s, BENCHMARK.json says %s", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case unmeasured[m.Name] != "":
					t.Errorf("%s trace=%v: metric %s unmeasured: %s", wl.Name, trace, m.Name, unmeasured[m.Name])
				}
			}
			if !trace && res.Metrics["success_ratio"].Value != 1 {
				t.Errorf("%s: success_ratio %v, want 1", wl.Name, res.Metrics["success_ratio"].Value)
			}
		}
	}
}
