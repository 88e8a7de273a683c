package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload at minimum size, untraced and traced,
// and checks that each run passes its output checks and emits every
// metric BENCHMARK.json names, with its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	names := []string{"serve"} // runnable by hand, not in BENCHMARK.json
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			name, trace := name, trace
			label := name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(label, func(t *testing.T) {
				c := &config{workload: name, seed: 7, seconds: 0.3, trace: trace, nproc: 2, work: t.TempDir(), min: true}
				var log strings.Builder
				res, err := run(c, &log)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("checks failed: correct=%v attempted=%d failed=%d\n%s",
						res.Correct, res.Attempted, res.Failed, log.String())
				}
				want := sp.EndToEnd
				if trace {
					want = sp.PerLayer
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not emitted", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				for n, m := range res.Metrics {
					if m.Unit == "" {
						t.Errorf("metric %s has no unit", n)
					}
				}
			})
		}
	}
}

// TestWorkloadsListed keeps the benchmark's workload table and
// BENCHMARK.json in step.
func TestWorkloadsListed(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if _, ok := benchWorkloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not implemented", w.Name)
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 26}, {40, 40}}
	if got := covered(iv); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
}
