package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
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

// TestSmoke runs every workload at toy size, untraced and traced, and
// fails if a workload BENCHMARK.json names is not implemented, or a
// metric the file names is missing from a printed result or carries no
// unit or another unit.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json names no workloads or metrics")
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			cfg := &config{workload: name, seed: 3, seconds: 0.5, trace: trace, toy: true,
				outDir: t.TempDir(), commit: "test"}
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var buf bytes.Buffer
			if err := printReport(&buf, cfg, out); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d; failures: %v",
					name, trace, res.Correct, res.Attempted, res.Failed, out.failures)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok || got.Value == nil:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit == "" || got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q",
						name, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d",
					name, trace, len(res.Metrics), len(want))
			}
		}
	}
}
